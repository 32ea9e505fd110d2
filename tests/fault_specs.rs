//! The fault registry's one spec grammar round-trips. For seeded,
//! generated specs of both kinds — failpoints and `net.*` link faults —
//! the rendering `list()` reports configures back to the same spec,
//! with the probability and the trigger budget preserved. Every spec is
//! armed through a thread-scoped guard, so this test cannot disturb
//! (or be disturbed by) anything else running in the binary.

use intensio_fault::{list, scoped, Rng};

fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[below(rng, items.len() as u64) as usize]
}

/// One generated fault: its name, its spec text, and the probability
/// (in parts per million) and budget that text should arm.
struct Generated {
    name: String,
    spec: String,
    ppm: Option<u64>,
    budget: Option<u64>,
}

fn generate(rng: &mut Rng, i: usize) -> Generated {
    let ppm = (below(rng, 3) == 0).then(|| below(rng, 1_000_000));
    let budget = (below(rng, 2) == 0).then(|| below(rng, 1_000));
    let (name, body) = if below(rng, 2) == 0 {
        let body = match below(rng, 3) {
            0 => "error".to_string(),
            1 => "PANIC".to_string(),
            _ => format!("delay:{}", below(rng, 500)),
        };
        (format!("gen.point{i}"), body)
    } else {
        let kind = pick(
            rng,
            &[
                "partition",
                "oneway",
                "dup",
                "torn_write",
                "reset",
                "delay:25",
            ],
        );
        let ends = ["a", "b", "*", "127.0.0.1:7001", "node-9"];
        let (from, to) = (pick(rng, &ends), pick(rng, &ends));
        let arrow = pick(rng, &["<->", "->"]);
        (format!("net.{kind}#{i}"), format!("{from}{arrow}{to}"))
    };
    // Written non-canonically (padded percent, spaces around `*`), so
    // the rendering is a real re-encoding rather than an echo.
    let mut spec = String::new();
    if let Some(p) = ppm {
        spec.push_str(&format!("{:.4}%", p as f64 / 10_000.0));
    }
    spec.push_str(&body);
    if let Some(n) = budget {
        spec.push_str(&format!(" * {n}"));
    }
    Generated {
        name,
        spec,
        ppm,
        budget,
    }
}

/// Arm `name=spec` for this thread and return the spec `list()` renders.
fn rendered(name: &str, spec: &str) -> String {
    let _armed = scoped(name, spec).unwrap_or_else(|e| panic!("{name}={spec}: {e}"));
    let mine: Vec<_> = list().into_iter().filter(|s| s.name == name).collect();
    assert_eq!(mine.len(), 1, "{name} listed once");
    mine[0].spec.clone()
}

#[test]
fn listed_specs_configure_back_to_the_same_spec() {
    let mut rng = Rng::new(0x0fa1_75ec);
    for i in 0..500 {
        let g = generate(&mut rng, i);
        let first = rendered(&g.name, &g.spec);
        let again = rendered(&g.name, &first);
        assert_eq!(
            first, again,
            "{}={} re-rendered differently",
            g.name, g.spec
        );

        let (prob, rest) = match first.split_once('%') {
            Some((p, rest)) => (Some(p.parse::<f64>().unwrap()), rest),
            None => (None, first.as_str()),
        };
        assert_eq!(
            prob.map(|p| (p * 10_000.0).round() as u64),
            g.ppm,
            "{}={} lost its probability: {first}",
            g.name,
            g.spec
        );
        let budget = rest
            .rsplit_once('*')
            .and_then(|(_, n)| n.parse::<u64>().ok());
        assert_eq!(
            budget, g.budget,
            "{}={} lost its budget: {first}",
            g.name, g.spec
        );
    }
    assert!(list().is_empty(), "every scoped spec disarmed on drop");
}
