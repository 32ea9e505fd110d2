//! # intensio-fault
//!
//! The workspace's one fault registry, with zero dependencies. It holds
//! two kinds of fault under one grammar: *failpoints*, named injection
//! points production code marks with [`fire`] (an armed point injects
//! an error, adds latency or panics), and *link faults*, names under
//! `net.` that sever, skew, duplicate, tear or reset one link's
//! traffic. The cluster transport (`intensio-net`) asks
//! [`link_effects`] what to do to each network operation and applies
//! the answer itself.
//!
//! With nothing armed, [`fire`] and [`link_effects`] are each one
//! relaxed atomic load and a branch, so injection points can sit on hot
//! paths; the registry lookup and the RNG roll run only while some
//! fault is armed.
//!
//! ## Spec grammar
//!
//! One fault: `name=[P%]body[*N]`, several separated by `;`. `P` is a
//! trigger probability in percent (`0.5%` is allowed) and `*N` a
//! trigger budget. A trailing `*N` is a budget only when digits follow
//! the last `*`, so a link endpoint may be `*`. The body `off` disarms.
//! A failpoint's body is `error`, `panic` or `delay:MS`; a link
//! fault's name carries its kind (and `net.delay`'s `:MS`, and an
//! optional `#tag` that keeps names unique) and its body is the link,
//! between node labels, `host:port` addresses, aliases
//! ([`register_alias`]) or `*`:
//!
//! ```text
//! storage.scan=25%error        inject an error on 25% of firings
//! serve.worker=panic*2         panic, at most twice in total
//! serve.cache=delay:50         sleep 50 ms on every firing
//! net.partition=a<->b          sever the a↔b link (both directions)
//! net.oneway=a->b              drop only a→b traffic
//! net.delay:50#2=a->b          add 50 ms to every a→b operation
//! net.dup=a->b                 every a→b write crosses twice
//! net.torn_write=a->b*1        the next a→b write ships half, then dies
//! net.reset=0.5%a<->*          0.5% of a's operations see ECONNRESET
//! ```
//!
//! `INTENSIO_FAILPOINTS` ([`init_from_env`]) and the serve protocol's
//! `FAULT SET` verb take the same grammar. Probabilistic triggers of
//! both kinds roll one seeded [`Rng`] ([`set_seed`], or
//! `INTENSIO_CHAOS_SEED` in [`init_from_env`]), so a chaos schedule
//! replays for a fixed seed and thread interleaving.
//!
//! [`scoped`] arms a spec for faults fired on the calling thread only
//! and disarms it when the guard drops, so tests running in parallel
//! in one binary cannot spend each other's budgets:
//!
//! ```
//! use intensio_fault as fault;
//!
//! assert!(fault::fire("demo.point").is_ok(), "disarmed points are no-ops");
//! let armed = fault::scoped("demo.point", "error*1").unwrap();
//! assert!(fault::fire("demo.point").is_err(), "armed: injects once");
//! assert!(fault::fire("demo.point").is_ok(), "budget of 1 is spent");
//! drop(armed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

pub mod backoff;
mod link;

pub use backoff::Backoff;
pub use link::LinkEffects;

use link::{Endpoint, Link, LINK_PREFIX};

/// Trigger probabilities are kept in parts per million.
const PPM: u32 = 1_000_000;

/// The workspace's one seeded generator (splitmix64): the fault
/// registry's trigger rolls, [`Backoff`] jitter, and test workloads
/// that must replay for a fixed seed. Every seed, 0 included, is valid.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub const fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What an armed fault does when it triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    /// [`fire`] returns `Err(InjectedFault)`.
    Error,
    /// [`fire`] sleeps for the duration, then returns `Ok`.
    Delay(Duration),
    /// [`fire`] panics (for exercising `catch_unwind` isolation and
    /// worker supervision).
    Panic,
    /// [`link_effects`] reports the link's effect on matching traffic.
    Link(Link),
}

impl Action {
    /// Parse a failpoint action: `error`, `panic` or `delay:MS`.
    fn parse(name: &str, body: &str) -> Result<Action, String> {
        let lower = body.to_ascii_lowercase();
        match lower.as_str() {
            "error" => Ok(Action::Error),
            "panic" => Ok(Action::Panic),
            _ => match lower.strip_prefix("delay:") {
                Some(ms) => ms
                    .trim()
                    .parse()
                    .map(|ms| Action::Delay(Duration::from_millis(ms)))
                    .map_err(|_| format!("{name}: bad delay {ms:?}")),
                None => Err(format!(
                    "{name}: unknown action {body:?}; expected error, panic, delay:MS, or off"
                )),
            },
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Error => write!(f, "error"),
            Action::Delay(d) => write!(f, "delay:{}", d.as_millis()),
            Action::Panic => write!(f, "panic"),
            Action::Link(link) => write!(f, "{link}"),
        }
    }
}

/// When an armed fault runs its action: the `[P%]` and `[*N]`
/// modifiers, and the hit/trigger accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trigger {
    /// Trigger probability in parts per million ([`PPM`] = always).
    prob_ppm: u32,
    /// Remaining trigger budget; `None` is unlimited.
    remaining: Option<u64>,
    /// Times a firing or a link check consulted this fault.
    hits: u64,
    /// Times the action actually ran.
    triggered: u64,
}

impl Trigger {
    /// Count one consultation and decide whether the action runs: the
    /// budget must not be spent and the probability roll must pass.
    fn roll(&mut self, rng: &mut Rng) -> bool {
        self.hits += 1;
        if self.remaining == Some(0) {
            return false;
        }
        if self.prob_ppm < PPM && rng.next_u64() % u64::from(PPM) >= u64::from(self.prob_ppm) {
            return false;
        }
        if let Some(n) = self.remaining.as_mut() {
            *n -= 1;
        }
        self.triggered += 1;
        true
    }
}

/// One armed fault.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Spec {
    action: Action,
    trigger: Trigger,
}

impl Spec {
    /// Parse `[P%]body[*N]` (or `off`, which is `None`) for the fault
    /// `name`: a link body under `net.`, an action otherwise.
    fn parse(name: &str, text: &str) -> Result<Option<Spec>, String> {
        let text = text.trim();
        if text.is_empty() {
            return Err(format!("{name}: empty spec"));
        }
        if text.eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        let (prob_ppm, rest) = match text.split_once('%') {
            Some((p, rest)) => {
                let pct: f64 = p
                    .trim()
                    .parse()
                    .map_err(|_| format!("{name}: bad probability {p:?}"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("{name}: probability {pct} outside 0..=100"));
                }
                ((pct * 10_000.0).round() as u32, rest)
            }
            None => (PPM, text),
        };
        let (body, remaining) = match rest.rsplit_once('*').map(|(b, n)| (b, n.trim())) {
            Some((body, n)) if !n.is_empty() && n.bytes().all(|c| c.is_ascii_digit()) => {
                let n = n
                    .parse()
                    .map_err(|_| format!("{name}: bad trigger budget {n:?}"))?;
                (body.trim(), Some(n))
            }
            _ => (rest.trim(), None),
        };
        let action = if is_link(name) {
            Action::Link(Link::parse(name, body)?)
        } else {
            Action::parse(name, body)?
        };
        Ok(Some(Spec {
            action,
            trigger: Trigger {
                prob_ppm,
                remaining,
                hits: 0,
                triggered: 0,
            },
        }))
    }

    fn status(&self, name: &str) -> FailpointStatus {
        let t = &self.trigger;
        let mut spec = String::new();
        if t.prob_ppm < PPM {
            spec.push_str(&format!("{}%", f64::from(t.prob_ppm) / 10_000.0));
        }
        spec.push_str(&self.action.to_string());
        if let Some(n) = t.remaining {
            spec.push_str(&format!("*{n}"));
        }
        FailpointStatus {
            name: name.to_string(),
            spec,
            hits: t.hits,
            triggered: t.triggered,
        }
    }
}

/// A point-in-time view of one armed fault, for `FAULT LIST` and test
/// assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointStatus {
    /// The fault's name.
    pub name: String,
    /// The armed spec, re-rendered in the grammar of [`configure`].
    pub spec: String,
    /// Times a firing or a link check consulted this fault while armed.
    pub hits: u64,
    /// Times the action actually ran.
    pub triggered: u64,
}

/// The error injected by an `error` action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint that injected this error.
    pub point: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.point)
    }
}

impl std::error::Error for InjectedFault {}

/// The process-global faults, the address→label aliases link faults
/// match through, and the trigger generator.
struct Registry {
    specs: BTreeMap<String, Spec>,
    aliases: BTreeMap<String, String>,
    rng: Rng,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    specs: BTreeMap::new(),
    aliases: BTreeMap::new(),
    rng: Rng::new(0),
});

/// Fast-path gate: true iff at least one fault is armed, globally or
/// scoped to some thread. Checked with a relaxed load before any other
/// work in [`fire`] and [`link_effects`].
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Live [`Scoped`] guards across all threads.
static SCOPED_LIVE: AtomicUsize = AtomicUsize::new(0);

/// A fault armed by [`scoped`], visible to its arming thread only.
struct ScopedEntry {
    id: u64,
    name: String,
    spec: Spec,
}

thread_local! {
    static SCOPED: RefCell<Vec<ScopedEntry>> = const { RefCell::new(Vec::new()) };
}

fn lock() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Recompute [`ACTIVE`]; callers hold the registry lock so updates
/// cannot interleave.
fn refresh(reg: &Registry) {
    let armed = !reg.specs.is_empty() || SCOPED_LIVE.load(Ordering::SeqCst) > 0;
    ACTIVE.store(armed, Ordering::SeqCst);
}

/// Whether any fault is currently armed (one relaxed load).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Whether `name` is a link fault (`net.*`) rather than a failpoint.
pub fn is_link(name: &str) -> bool {
    name.trim().starts_with(LINK_PREFIX)
}

/// Seed the trigger generator both fault kinds roll.
pub fn set_seed(seed: u64) {
    lock().rng = Rng::new(seed);
}

/// The `INTENSIO_CHAOS_SEED` environment variable, if set to a number:
/// the one knob that makes chaos drills and their probabilistic faults
/// replay.
pub fn chaos_seed() -> Option<u64> {
    std::env::var("INTENSIO_CHAOS_SEED")
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Hit a named injection point.
///
/// Disarmed (the common case): returns `Ok(())` after one relaxed
/// atomic load. Armed: rolls the probability, spends the trigger
/// budget, and runs the action — sleeping for `delay`, returning
/// `Err` for `error`, panicking for `panic`. A spec [`scoped`] to this
/// thread shadows a global one of the same name.
#[inline]
pub fn fire(name: &str) -> Result<(), InjectedFault> {
    if !active() {
        return Ok(());
    }
    fire_armed(name)
}

#[cold]
fn fire_armed(name: &str) -> Result<(), InjectedFault> {
    // The lock is released before acting: a delay must not serialize
    // every other armed fault behind this one.
    let action = {
        let mut reg = lock();
        let Registry { specs, rng, .. } = &mut *reg;
        let mut roll = |spec: &mut Spec| spec.trigger.roll(rng).then(|| spec.action.clone());
        let scoped = SCOPED.with(|s| {
            let mut s = s.borrow_mut();
            let entry = s.iter_mut().rev().find(|e| e.name == name)?;
            Some(roll(&mut entry.spec))
        });
        match scoped {
            Some(outcome) => outcome,
            None => specs.get_mut(name).and_then(roll),
        }
    };
    match action {
        Some(Action::Error) => Err(InjectedFault {
            point: name.to_string(),
        }),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Action::Panic) => panic!("injected panic at failpoint {name}"),
        Some(Action::Link(_)) | None => Ok(()),
    }
}

/// The merged effects of every link fault matching traffic flowing
/// `src → dst`, each end named by an optional label and an address
/// (either may be empty). Disarmed: one relaxed load.
#[inline]
pub fn link_effects(
    src_label: Option<&str>,
    src_addr: &str,
    dst_label: Option<&str>,
    dst_addr: &str,
) -> LinkEffects {
    if !active() {
        return LinkEffects::default();
    }
    link_effects_armed(Endpoint(src_label, src_addr), Endpoint(dst_label, dst_addr))
}

#[cold]
fn link_effects_armed(src: Endpoint<'_>, dst: Endpoint<'_>) -> LinkEffects {
    let mut fx = LinkEffects::default();
    let mut guard = lock();
    let reg = &mut *guard;
    let mut consult = |spec: &mut Spec| {
        if let Action::Link(link) = &spec.action {
            if link.carries(src, dst, &reg.aliases) && spec.trigger.roll(&mut reg.rng) {
                fx.add(link);
            }
        }
    };
    reg.specs.values_mut().for_each(&mut consult);
    SCOPED.with(|s| s.borrow_mut().iter_mut().for_each(|e| consult(&mut e.spec)));
    fx
}

fn checked_name(name: &str) -> Result<&str, String> {
    let name = name.trim();
    if name.is_empty() {
        return Err("fault name is empty".to_string());
    }
    Ok(name)
}

/// Arm (or, with `off`, disarm) one fault. See the module docs for the
/// spec grammar.
pub fn configure(name: &str, spec: &str) -> Result<(), String> {
    let name = checked_name(name)?;
    let parsed = Spec::parse(name, spec)?;
    let mut reg = lock();
    match parsed {
        Some(spec) => reg.specs.insert(name.to_string(), spec),
        None => reg.specs.remove(name),
    };
    refresh(&reg);
    Ok(())
}

/// Arm several faults from `name=spec;name=spec` text (the
/// `INTENSIO_FAILPOINTS` and `FAULT SET` grammar). Stops at the first
/// malformed entry.
pub fn configure_str(s: &str) -> Result<(), String> {
    for part in s.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, spec) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed fault {part:?}; expected name=spec"))?;
        configure(name, spec)?;
    }
    Ok(())
}

/// Disarm every global fault of both kinds (scoped ones belong to their
/// guards; aliases survive — they are topology, not faults).
pub fn clear() {
    let mut reg = lock();
    reg.specs.clear();
    refresh(&reg);
}

/// Disarm every global link fault, leaving failpoints armed.
pub fn clear_links() {
    let mut reg = lock();
    reg.specs.retain(|name, _| !is_link(name));
    refresh(&reg);
}

/// Seed from `INTENSIO_CHAOS_SEED` and arm faults from
/// `INTENSIO_FAILPOINTS`, when set. Malformed specs are reported on
/// stderr and skipped, never fatal — a typo in an ops knob must not take
/// the service down.
pub fn init_from_env() {
    if let Some(seed) = chaos_seed() {
        set_seed(seed);
    }
    if let Ok(v) = std::env::var("INTENSIO_FAILPOINTS") {
        if let Err(e) = configure_str(&v) {
            eprintln!("intensio-fault: ignoring INTENSIO_FAILPOINTS: {e}");
        }
    }
}

/// Every armed fault visible to this thread (global ones and this
/// thread's scoped ones) with its hit/trigger counts, name-sorted.
pub fn list() -> Vec<FailpointStatus> {
    let reg = lock();
    let mut out: Vec<FailpointStatus> = reg
        .specs
        .iter()
        .map(|(name, spec)| spec.status(name))
        .collect();
    SCOPED.with(|s| out.extend(s.borrow().iter().map(|e| e.spec.status(&e.name))));
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Map a listening address to a node label, so link faults written
/// against labels also catch connections that only know the address
/// (in-process multi-node harnesses register every node here).
pub fn register_alias(addr: &str, label: &str) {
    lock().aliases.insert(addr.to_string(), label.to_string());
}

/// Drop every registered alias.
pub fn clear_aliases() {
    lock().aliases.clear();
}

/// Arm `name=spec` for faults fired (and links checked) on the calling
/// thread only, until the returned guard drops. A scoped spec shadows a
/// global failpoint of the same name on this thread.
pub fn scoped(name: &str, spec: &str) -> Result<Scoped, String> {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let name = checked_name(name)?;
    let spec = Spec::parse(name, spec)?
        .ok_or_else(|| format!("{name}: a scoped fault needs a spec, not off"))?;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let reg = lock();
    SCOPED.with(|s| {
        s.borrow_mut().push(ScopedEntry {
            id,
            name: name.to_string(),
            spec,
        })
    });
    SCOPED_LIVE.fetch_add(1, Ordering::SeqCst);
    refresh(&reg);
    Ok(Scoped {
        id,
        _thread: PhantomData,
    })
}

/// The guard of a [`scoped`] fault: disarms it on drop. It cannot leave
/// its thread.
#[derive(Debug)]
#[must_use = "the scoped fault is disarmed when the guard drops"]
pub struct Scoped {
    id: u64,
    _thread: PhantomData<*const ()>,
}

impl Drop for Scoped {
    fn drop(&mut self) {
        let reg = lock();
        SCOPED.with(|s| s.borrow_mut().retain(|e| e.id != self.id));
        SCOPED_LIVE.fetch_sub(1, Ordering::SeqCst);
        refresh(&reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that touch the global registry, the shared generator or
    /// the `ACTIVE` flag must not interleave. One lock serializes them.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        clear_aliases();
        guard
    }

    fn fx(src: &str, dst: &str) -> LinkEffects {
        link_effects(Some(src), "", Some(dst), "")
    }

    #[test]
    fn disarmed_fire_is_ok_and_inactive() {
        let _g = serial();
        assert!(!active());
        assert!(fire("nothing.armed").is_ok());
        assert!(!fx("a", "b").severed);
        assert!(list().is_empty());
    }

    #[test]
    fn error_action_injects_until_budget_spent() {
        let _g = serial();
        configure("p.err", "error*2").unwrap();
        assert!(active());
        assert_eq!(
            fire("p.err"),
            Err(InjectedFault {
                point: "p.err".to_string()
            })
        );
        assert!(fire("p.err").is_err());
        assert!(fire("p.err").is_ok(), "budget of 2 spent");
        let st = &list()[0];
        assert_eq!((st.hits, st.triggered), (3, 2));
        assert_eq!(st.spec, "error*0");
    }

    #[test]
    fn other_points_are_unaffected() {
        let _g = serial();
        configure("p.one", "error").unwrap();
        assert!(fire("p.other").is_ok());
        assert!(fire("p.one").is_err());
    }

    #[test]
    fn delay_action_sleeps() {
        let _g = serial();
        configure("p.slow", "delay:30").unwrap();
        let t = std::time::Instant::now();
        assert!(fire("p.slow").is_ok());
        assert!(
            t.elapsed() >= Duration::from_millis(25),
            "{:?}",
            t.elapsed()
        );
    }

    #[test]
    fn panic_action_panics() {
        let _g = serial();
        configure("p.boom", "panic*1").unwrap();
        let r = std::panic::catch_unwind(|| fire("p.boom"));
        assert!(r.is_err());
        assert!(fire("p.boom").is_ok(), "budget spent by the panic");
    }

    #[test]
    fn probability_is_seeded_and_roughly_calibrated() {
        let _g = serial();
        set_seed(42);
        configure("p.half", "50%error").unwrap();
        let errs = (0..1000).filter(|_| fire("p.half").is_err()).count();
        assert!((350..=650).contains(&errs), "50% armed, got {errs}/1000");

        // Same seed, same schedule.
        set_seed(42);
        configure("p.half", "50%error").unwrap();
        let replay = (0..1000).filter(|_| fire("p.half").is_err()).count();
        assert_eq!(errs, replay, "fixed seed must replay identically");
    }

    #[test]
    fn off_disarms_and_clear_resets_active() {
        let _g = serial();
        configure_str("a=error;b=delay:1").unwrap();
        assert_eq!(list().len(), 2);
        configure("a", "off").unwrap();
        assert_eq!(list().len(), 1);
        assert!(fire("a").is_ok());
        clear();
        assert!(!active());
    }

    #[test]
    fn spec_grammar_rejections() {
        let _g = serial();
        assert!(configure("x", "explode").is_err());
        assert!(configure("x", "150%error").is_err());
        assert!(configure("x", "delay:abc").is_err());
        assert!(configure("x", "error*many").is_err());
        assert!(configure("", "error").is_err());
        assert!(configure_str("no-equals-sign").is_err());
        assert!(configure("net.delay", "a->b").is_err(), "delay needs MS");
        assert!(configure("net.partition", "ab").is_err(), "no link arrow");
        assert!(configure("net.bogus", "a->b").is_err(), "unknown kind");
        assert!(
            configure("net.reset", "x%a<->b").is_err(),
            "bad probability"
        );
        assert!(!active(), "failed configs arm nothing");
    }

    #[test]
    fn configure_str_parses_multiple_and_skips_blanks() {
        let _g = serial();
        configure_str(" a = 10%delay:5 ;; b=panic*1 ;").unwrap();
        let st = list();
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].name, "a");
        assert_eq!(st[0].spec, "10%delay:5");
        assert_eq!(st[1].spec, "panic*1");
    }

    #[test]
    fn link_specs_keep_star_endpoints_and_name_delays() {
        let _g = serial();
        configure_str("net.partition=*<->b*2;net.oneway=a->*;net.delay:50#2=a->b*3").unwrap();
        let specs: Vec<_> = list().into_iter().map(|s| (s.name, s.spec)).collect();
        assert_eq!(
            specs,
            [
                ("net.delay:50#2".to_string(), "a->b*3".to_string()),
                ("net.oneway".to_string(), "a->*".to_string()),
                ("net.partition".to_string(), "*<->b*2".to_string()),
            ]
        );
        assert_eq!(fx("a", "b").delay, Some(Duration::from_millis(50)));
        assert!(fx("z", "b").severed, "`*` is an endpoint");
        assert!(!fx("b", "z").severed, "`*2` is a budget, spent by now");
    }

    #[test]
    fn fractional_link_probability_is_a_probability() {
        let _g = serial();
        configure("net.reset", "0.5%a<->b").unwrap();
        assert_eq!(list()[0].spec, "0.5%a<->b");
        set_seed(7);
        let resets = (0..20_000).filter(|_| fx("a", "b").reset).count();
        assert!(
            (40..=160).contains(&resets),
            "0.5% armed, got {resets}/20000"
        );
    }

    #[test]
    fn direction_and_symmetry() {
        let _g = serial();
        configure("net.oneway", "a->b").unwrap();
        assert!(fx("a", "b").severed);
        assert!(!fx("b", "a").severed, "reverse is open");
        configure("net.partition", "a<->c").unwrap();
        assert!(fx("a", "c").severed);
        assert!(fx("c", "a").severed);
    }

    #[test]
    fn aliases_resolve_addresses_to_labels() {
        let _g = serial();
        register_alias("127.0.0.1:9999", "b");
        configure("net.partition", "a<->b").unwrap();
        assert!(link_effects(Some("a"), "", None, "127.0.0.1:9999").severed);
        assert!(!link_effects(Some("c"), "", None, "127.0.0.1:9999").severed);
    }

    #[test]
    fn link_budget_depletes() {
        let _g = serial();
        configure("net.torn_write", "a->b*2").unwrap();
        assert!(fx("a", "b").torn);
        assert!(fx("a", "b").torn);
        assert!(!fx("a", "b").torn, "budget spent");
        let status = list();
        assert_eq!(status.len(), 1);
        assert_eq!((status[0].hits, status[0].triggered), (3, 2));
    }

    #[test]
    fn seeded_link_probability_is_deterministic() {
        let _g = serial();
        configure("net.reset", "50%a->b").unwrap();
        set_seed(42);
        let run1: Vec<bool> = (0..32).map(|_| fx("a", "b").reset).collect();
        set_seed(42);
        let run2: Vec<bool> = (0..32).map(|_| fx("a", "b").reset).collect();
        assert_eq!(run1, run2);
        assert!(run1.iter().any(|&b| b) && run1.iter().any(|&b| !b));
    }

    #[test]
    fn clear_links_keeps_failpoints() {
        let _g = serial();
        configure_str("net.partition=a<->b;net.dup=a->b;p.err=error").unwrap();
        configure("net.dup", "off").unwrap();
        assert_eq!(list().len(), 2);
        clear_links();
        assert_eq!(list().len(), 1);
        assert!(!fx("a", "b").severed);
        assert!(fire("p.err").is_err());
    }

    #[test]
    fn scoped_faults_are_invisible_to_other_threads() {
        let _g = serial();
        let armed = scoped("p.mine", "error").unwrap();
        let link = scoped("net.partition", "a<->b").unwrap();
        assert!(active());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(fire("p.mine").is_ok(), "another thread's scope");
                assert!(!fx("a", "b").severed);
                assert!(list().is_empty());
            });
        });
        assert!(fire("p.mine").is_err());
        assert!(fx("a", "b").severed);
        assert_eq!(list().len(), 2);
        drop((armed, link));
        assert!(fire("p.mine").is_ok());
        assert!(!active(), "the last guard disarms");
    }

    #[test]
    fn scoped_shadows_global_and_nests() {
        let _g = serial();
        configure("p.x", "error").unwrap();
        {
            let _outer = scoped("p.x", "delay:0").unwrap();
            assert!(fire("p.x").is_ok(), "scoped spec shadows the global");
            {
                let _inner = scoped("p.x", "error*1").unwrap();
                assert!(fire("p.x").is_err());
                assert!(fire("p.x").is_ok(), "inner budget spent");
            }
            assert!(fire("p.x").is_ok(), "outer still shadows");
        }
        assert!(fire("p.x").is_err(), "global again");
        assert!(scoped("p.x", "off").is_err());
    }

    #[test]
    fn generator_is_seeded_and_zero_is_a_valid_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1));
        assert_ne!(draw(0)[0], draw(0)[1], "no fixed point at zero");
    }
}
