//! The install gate, with a memo of its last verdict.
//!
//! Every rule set the service is about to serve passes one gate: the
//! static analysis of [`intensio_check::check_rules`] against the
//! catalog, then the answer-preserving prune of
//! [`RuleSet::minimize`]. A durable install also logs the pruned set's
//! [`rules_codec::rules_to_bytes`] body. Boot, recovery, background
//! re-induction and follower apply all go through one [`InstallGate`].
//!
//! Re-induction after a small write usually reproduces the rule set it
//! replaces, so the gate keeps what it computed for the last candidate:
//! the verdict and its Warn/Error counts, the pruned set, and (once a
//! durable install asked for it) the encoded body. A candidate that is
//! the last one (the same `Arc`, which is what the inducer hands over
//! when induction reused its set) or [`RuleSet::identical`] to it,
//! checked against the same catalog schemas under the same support
//! floor, reuses all three. The key is exact: identical rules check to
//! the same report and encode to the same bytes, and the rule checks
//! read nothing of the database but its relations' names and schemas.
//! A reused rejection is still a rejection. The metrics a check emits
//! (`induction.lint_warnings`, `induction.lint_errors`,
//! `serve.rules_pruned`) advance on a reuse exactly as they would on a
//! fresh check; `induction.gate_reused` counts the reuses.

use intensio_check::{check_rules, Report, RuleCheckConfig, Severity};
use intensio_rules::rule::RuleSet;
use intensio_storage::catalog::Database;
use intensio_storage::schema::SchemaRef;
use intensio_wal::{rules_codec, WalError};
use std::sync::{Arc, Mutex};

/// What the gate decided for one candidate rule set.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The pruned set to install, or `None` when Error-level findings
    /// rejected the candidate.
    pub rules: Option<Arc<RuleSet>>,
    /// Warn-level findings of the check (0 when checking is off).
    pub warnings: usize,
    /// Error-level findings of the check (0 when checking is off).
    pub errors: usize,
    /// Rules the prune dropped (0 for a rejection).
    pub pruned: u64,
    /// Whether the verdict was reused from the previous candidate.
    pub reused: bool,
}

/// The static-analysis install gate and its one-entry memo.
#[derive(Debug)]
pub struct InstallGate {
    /// Whether to run the checks (`ServiceConfig::check_rulesets`);
    /// the prune runs either way.
    check: bool,
    /// The checks' support floor: the induction threshold.
    min_support: usize,
    memo: Mutex<Option<Memo>>,
}

/// The last candidate the gate checked and what came of it. The
/// support floor, the third part of the key, is fixed per gate.
#[derive(Debug)]
struct Memo {
    candidate: Arc<RuleSet>,
    /// The catalog it was checked against: each relation's name and
    /// schema handle, in catalog order. Schemas compare by identity.
    catalog: Vec<(String, SchemaRef)>,
    verdict: Verdict,
    /// The Warn- and Error-level findings, rendered for the Verbose
    /// print; `None` when the check ran below Verbose level and did not
    /// render them.
    findings: Option<Vec<String>>,
    /// The logged encoding of `verdict.rules`, once an install asked.
    body: Option<Vec<u8>>,
}

impl Memo {
    fn matches(&self, candidate: &Arc<RuleSet>, db: &Database) -> bool {
        self.catalog.len() == db.len()
            && self
                .catalog
                .iter()
                .zip(db.relations())
                .all(|((name, schema), rel)| {
                    name == rel.name() && Arc::ptr_eq(schema, &rel.schema_ref())
                })
            && (Arc::ptr_eq(&self.candidate, candidate) || self.candidate.identical(candidate))
    }
}

fn verbose() -> bool {
    intensio_obs::level() >= intensio_obs::Level::Verbose
}

/// Feed a check's Warn and Error counts to `induction.lint_warnings` /
/// `induction.lint_errors`.
fn count_findings(warnings: usize, errors: usize) {
    if warnings > 0 {
        intensio_obs::add("induction.lint_warnings", warnings as u64);
    }
    if errors > 0 {
        intensio_obs::add("induction.lint_errors", errors as u64);
    }
}

/// The Verbose-level print of a report's Warn- and Error-level findings.
fn finding_lines(report: &Report) -> impl Iterator<Item = String> + '_ {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity >= Severity::Warn)
        .map(|d| format!("[lint] {d}"))
}

/// Check `rules` against `db`'s catalog with `min_support` as the
/// support floor, and sort the report. Its Warn and Error counts feed
/// the lint metrics, and at Verbose level each such finding is printed.
/// The install gate and the `CHECK` verb both lint through here.
pub(crate) fn lint(rules: &RuleSet, db: &Database, min_support: usize) -> Report {
    let mut report = check_rules(rules, Some(db), &RuleCheckConfig { min_support });
    report.sort();
    count_findings(report.count(Severity::Warn), report.count(Severity::Error));
    if verbose() {
        for line in finding_lines(&report) {
            eprintln!("{line}");
        }
    }
    report
}

impl InstallGate {
    /// A gate that checks candidates (when `check`) with `min_support`
    /// as the support floor, and prunes the ones it admits.
    pub fn new(check: bool, min_support: usize) -> InstallGate {
        InstallGate {
            check,
            min_support,
            memo: Mutex::new(None),
        }
    }

    /// Gate `candidate`, induced from (or shipped for) `db`: reuse the
    /// previous verdict when the candidate and the catalog's schemas
    /// are those it was reached for, else check and prune afresh and
    /// remember the result.
    pub fn admit(&self, candidate: impl Into<Arc<RuleSet>>, db: &Database) -> Verdict {
        let candidate = candidate.into();
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        let hit = memo
            .as_ref()
            .filter(|m| m.matches(&candidate, db) && (m.findings.is_some() || !verbose()));
        let (verdict, reused) = match hit {
            Some(m) => {
                intensio_obs::inc("induction.gate_reused");
                count_findings(m.verdict.warnings, m.verdict.errors);
                if verbose() {
                    for line in m.findings.iter().flatten() {
                        eprintln!("{line}");
                    }
                }
                (m.verdict.clone(), true)
            }
            None => {
                let (entry, verdict) = self.check_and_prune(candidate, db);
                *memo = Some(entry);
                (verdict, false)
            }
        };
        drop(memo);
        if verdict.pruned > 0 {
            intensio_obs::add("serve.rules_pruned", verdict.pruned);
        }
        Verdict { reused, ..verdict }
    }

    /// The full gate: check (Error-level findings reject), then drop
    /// directly-subsumed rules. The engine applies rules one at a time,
    /// so a rule whose premise lies inside a wider rule with the same
    /// conclusion never contributes a fact the wider rule does not.
    /// Chain-redundant rules (IC025) are only reported, never pruned:
    /// deriving their conclusion takes more than one step.
    fn check_and_prune(&self, candidate: Arc<RuleSet>, db: &Database) -> (Memo, Verdict) {
        // With the check off there is nothing to print.
        let (mut warnings, mut errors, mut findings) = (0, 0, Some(Vec::new()));
        if self.check {
            let report = lint(&candidate, db, self.min_support);
            warnings = report.count(Severity::Warn);
            errors = report.count(Severity::Error);
            findings = verbose().then(|| finding_lines(&report).collect());
        }
        let (rules, pruned) = if errors > 0 {
            (None, 0)
        } else {
            let mut kept = RuleSet::clone(&candidate);
            match kept.minimize() as u64 {
                // Nothing pruned: the memo and the install share one set.
                0 => (Some(Arc::clone(&candidate)), 0),
                n => (Some(Arc::new(kept)), n),
            }
        };
        let verdict = Verdict {
            rules,
            warnings,
            errors,
            pruned,
            reused: false,
        };
        let memo = Memo {
            candidate,
            catalog: db
                .relations()
                .map(|r| (r.name().to_string(), r.schema_ref()))
                .collect(),
            verdict: verdict.clone(),
            findings,
            body: None,
        };
        (memo, verdict)
    }

    /// The WAL record body for `rules`, a set this gate admitted:
    /// reused when it is the remembered verdict's set and was encoded
    /// before, else encoded (and remembered, when it is that set).
    pub fn encode(&self, rules: &Arc<RuleSet>) -> Result<Vec<u8>, WalError> {
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        let entry = memo.as_mut().filter(|m| {
            m.verdict
                .rules
                .as_ref()
                .is_some_and(|r| Arc::ptr_eq(r, rules))
        });
        match entry {
            Some(Memo {
                body: Some(body), ..
            }) => Ok(body.clone()),
            Some(m) => {
                let body = rules_codec::rules_to_bytes(rules)?;
                m.body = Some(body.clone());
                Ok(body)
            }
            None => rules_codec::rules_to_bytes(rules),
        }
    }
}
