//! Attribute equivalence classes: attributes that always hold the same
//! values, so a condition on one holds for the others. The KER model's
//! referential equivalences ([`crate::KerModel::referential_equivalences`])
//! are the classes of its object-valued attributes and the keys they
//! reference; a query's equi-joins add more.

/// An equality between two attributes, each `(object, attribute)`.
pub type Edge<'e> = [(&'e str, &'e str); 2];

/// Disjoint classes of attributes, each `(object, attribute)`. Names
/// are compared ASCII case-insensitively.
#[derive(Debug, Clone, Default)]
pub struct Equivalences {
    /// Each class's members in order of their lowercase
    /// `(object, attribute)`, each spelled as the last edge naming it
    /// spells it.
    classes: Vec<Vec<(String, String)>>,
}

fn same(a: (&str, &str), b: (&str, &str)) -> bool {
    a.0.eq_ignore_ascii_case(b.0) && a.1.eq_ignore_ascii_case(b.1)
}

impl Equivalences {
    /// The classes `edges` equate: the transitive closure of the edges.
    pub fn from_edges<'e>(edges: impl IntoIterator<Item = Edge<'e>>) -> Equivalences {
        let mut members: Vec<(&str, &str)> = Vec::new();
        // Union-find over member positions.
        let mut parent: Vec<usize> = Vec::new();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut intern = |m: (&'e str, &'e str), parent: &mut Vec<usize>| match members
            .iter()
            .position(|&o| same(o, m))
        {
            Some(i) => {
                members[i] = m;
                i
            }
            None => {
                members.push(m);
                parent.push(parent.len());
                parent.len() - 1
            }
        };
        for [a, b] in edges {
            let (ia, ib) = (intern(a, &mut parent), intern(b, &mut parent));
            let (ra, rb) = (root(&mut parent, ia), root(&mut parent, ib));
            parent[rb] = ra;
        }
        let mut classes: Vec<Vec<(String, String)>> = Vec::new();
        let mut class_of_root: Vec<Option<usize>> = vec![None; members.len()];
        for (i, &(object, attribute)) in members.iter().enumerate() {
            let r = root(&mut parent, i);
            let c = *class_of_root[r].get_or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[c].push((object.to_string(), attribute.to_string()));
        }
        for class in &mut classes {
            class.sort_by_cached_key(|(o, a)| (o.to_ascii_lowercase(), a.to_ascii_lowercase()));
        }
        Equivalences { classes }
    }

    /// The class holding `object.attribute`, members in order of their
    /// lowercase `(object, attribute)`, if any edge named it.
    pub fn class_of(&self, object: &str, attribute: &str) -> Option<&[(String, String)]> {
        self.classes
            .iter()
            .find(|c| c.iter().any(|(o, a)| same((o, a), (object, attribute))))
            .map(Vec::as_slice)
    }

    /// Whether the edge equates nothing these classes do not already:
    /// an attribute with itself, or two members of one class.
    pub fn holds(&self, [a, b]: Edge<'_>) -> bool {
        same(a, b)
            || self
                .class_of(a.0, a.1)
                .is_some_and(|c| c.iter().any(|(o, at)| same((o, at), b)))
    }
}
