//! The three workloads: the fleet they run on and the operations of
//! each round, all derived from the seed.

use crate::oracle::{Cond, Op, Query, Val};
use intensio_shipdb::synthetic::FleetConfig;
use std::collections::BTreeMap;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only; every query carries a constant never seen before.
    InferMiss,
    /// Read-only; a fixed set of distinct queries, cached after warm-up.
    CacheHit,
    /// Durable; each operation appends a ship and reads at the install
    /// epoch of the rules re-induced from it.
    WriteRelearn,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "infer_miss" => Some(Workload::InferMiss),
            "cache_hit" => Some(Workload::CacheHit),
            "write_relearn" => Some(Workload::WriteRelearn),
            _ => None,
        }
    }
}

/// The fleet every workload runs on: six ship types of ten classes of
/// thirty ships (1,800 ships, 3,690 tuples), 2% of ship ids scattered
/// out of their class's run.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class: 30,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    }
}

/// A ship appended by a `write_relearn` cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct NewShip {
    /// `S9nnnnn` (`S8nnnnn` for a twin): sorts after every generated id.
    pub id: String,
    /// `added nnnnn` (`twin nnnnn`).
    pub name: String,
    /// An existing class code.
    pub class: String,
}

impl NewShip {
    /// The QUEL script that appends the ship.
    pub fn script(&self) -> String {
        format!(
            "append to SUBMARINE (Id = \"{}\", Name = \"{}\", Class = \"{}\")",
            self.id, self.name, self.class
        )
    }
}

/// One benchmark operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// One `SQL` request.
    Read(Query),
    /// Append `ship`, then read `query` at the install epoch.
    Cycle {
        /// The appended ship.
        ship: NewShip,
        /// A read that must include it.
        query: Query,
    },
}

const DISPLACEMENT: &str = "CLASS.Displacement";
const TYPE: &str = "CLASS.Type";
const SUB_CLASS: &str = "SUBMARINE.Class";

fn int(v: i64) -> Val {
    Val::Int(v)
}

fn text(v: impl Into<String>) -> Val {
    Val::Str(v.into())
}

/// Generates each workload's rounds from the seed and the fleet's
/// ground-truth bands.
#[derive(Debug, Clone)]
pub struct Plan {
    workload: Workload,
    /// Per-run offset that makes constants differ between seeds.
    offset: u64,
    /// Type codes in order, with their displacement bands.
    bands: Vec<(String, (i64, i64))>,
}

impl Plan {
    /// A plan over the given fleet ground truth.
    pub fn new(workload: Workload, seed: u64, type_band: &BTreeMap<String, (i64, i64)>) -> Plan {
        Plan {
            workload,
            offset: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40,
            bands: type_band.iter().map(|(t, b)| (t.clone(), *b)).collect(),
        }
    }

    /// The workload the plan drives.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The displacement gap on each side of type `t`'s band: every
    /// value from `gap_below.0` to `gap_above.1` that is not in the band
    /// belongs to no type.
    fn gaps(&self, t: usize) -> ((i64, i64), (i64, i64)) {
        let (lo, hi) = self.bands[t].1;
        let below = match t {
            0 => (lo - 499, lo - 1),
            _ => (self.bands[t - 1].1 .1 + 1, lo - 1),
        };
        let above = match self.bands.get(t + 1) {
            Some((_, (next_lo, _))) => (hi + 1, next_lo - 1),
            None => (hi + 1, hi + 499),
        };
        (below, above)
    }

    /// A band condition that selects exactly type `t`'s ships: from a
    /// point in the gap below its band to a point in the gap above.
    fn whole_band(&self, t: usize, below: u64, above: u64) -> Vec<Cond> {
        let ((b_lo, b_hi), (a_lo, a_hi)) = self.gaps(t);
        let a = b_lo + (below % (b_hi - b_lo + 1) as u64) as i64;
        let b = a_hi - (above % (a_hi - a_lo + 1) as u64) as i64;
        vec![
            Cond::new(DISPLACEMENT, Op::Ge, int(a)),
            Cond::new(DISPLACEMENT, Op::Le, int(b)),
        ]
    }

    fn type_code(&self, t: usize) -> String {
        self.bands[t].0.clone()
    }

    /// The operations of round `r`. Every round of one run has the same
    /// shape, so a run's failed share is the same however many rounds
    /// it completes.
    pub fn round(&self, r: u64) -> Vec<Operation> {
        match self.workload {
            Workload::CacheHit => self.cache_hit_queries(),
            Workload::InferMiss => self.infer_miss_round(r),
            Workload::WriteRelearn => self.write_relearn_round(r, "S9", "added"),
        }
    }

    /// A twin of round `r`: the same operations position by position,
    /// with their own fresh constants and ship ids, which no round of
    /// [`Plan::round`] uses in a run of under 124,500 rounds. The traced
    /// run sends each operation over TCP and its twin in process.
    pub fn twin_round(&self, r: u64) -> Vec<Operation> {
        match self.workload {
            Workload::CacheHit => self.cache_hit_queries(),
            Workload::InferMiss => self.infer_miss_round(r + 124_500),
            Workload::WriteRelearn => self.write_relearn_round(r, "S8", "twin"),
        }
    }

    /// Six band queries and six type-membership queries, each with a
    /// constant no earlier round of the run used.
    fn infer_miss_round(&self, r: u64) -> Vec<Operation> {
        let k = r + self.offset;
        let mut ops = Vec::new();
        for t in 0..self.bands.len() {
            // Distinct (below, above) pairs for k < 249,001.
            ops.push(Operation::Read(Query {
                conds: self.whole_band(t, k % 499, k / 499),
            }));
            let (_, hi) = self.bands[t].1;
            ops.push(Operation::Read(Query {
                conds: vec![
                    Cond::new(TYPE, Op::Eq, text(self.type_code(t))),
                    Cond::new(DISPLACEMENT, Op::Le, int(hi + 1 + (k % 1_000_000) as i64)),
                ],
            }));
        }
        ops
    }

    /// Thirty distinct queries of 300 to 600 rows each, far below the
    /// 256-entry answer cache.
    fn cache_hit_queries(&self) -> Vec<Operation> {
        let n = self.bands.len();
        let mut qs = Vec::new();
        for t in 0..n {
            let code = self.type_code(t);
            let (_, hi) = self.bands[t].1;
            let digits = &code[1..];
            qs.push(vec![Cond::new(TYPE, Op::Eq, text(code.clone()))]);
            qs.push(self.whole_band(t, self.offset, self.offset / 7));
            qs.push(vec![
                Cond::new(SUB_CLASS, Op::Ge, text(format!("{digits}00"))),
                Cond::new(SUB_CLASS, Op::Le, text(format!("{digits}99"))),
            ]);
            qs.push(vec![
                Cond::new(TYPE, Op::Eq, text(code.clone())),
                Cond::new(
                    DISPLACEMENT,
                    Op::Le,
                    int(hi + 1 + (self.offset % 9_000) as i64),
                ),
            ]);
            if t + 1 < n {
                // Two adjacent types: no single type to conclude.
                let mut two = self.whole_band(t, self.offset, 0);
                two[1] = self.whole_band(t + 1, 0, self.offset)[1].clone();
                qs.push(two);
            }
        }
        // A band strictly inside the first type's band. Its constants
        // depend only on the fleet shape, never on the seed.
        let (lo, hi) = self.bands[0].1;
        qs.push(vec![
            Cond::new(DISPLACEMENT, Op::Ge, int(lo + 1)),
            Cond::new(DISPLACEMENT, Op::Le, int(hi - 1)),
        ]);
        qs.into_iter()
            .map(|conds| Operation::Read(Query { conds }))
            .collect()
    }

    /// Three write-and-relearn cycles, cycling through the types.
    fn write_relearn_round(&self, r: u64, id_prefix: &str, name: &str) -> Vec<Operation> {
        let n = self.bands.len() as u64;
        (3 * r..3 * r + 3)
            .map(|i| {
                let t = (i % n) as usize;
                let class = (i * 7 + self.offset) % 10;
                let code = self.type_code(t);
                Operation::Cycle {
                    ship: NewShip {
                        id: format!("{id_prefix}{i:05}"),
                        name: format!("{name} {i:05}"),
                        class: format!("{}{class:02}", &code[1..]),
                    },
                    query: Query {
                        conds: vec![Cond::new(TYPE, Op::Eq, text(code))],
                    },
                }
            })
            .collect()
    }
}
