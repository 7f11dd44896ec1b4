//! Output checking: serial `run_atpg` references and the independent
//! delay oracle.

use satpg_core::{run_atpg, validate_test, AtpgConfig, AtpgReport, Verdict};
use satpg_netlist::Circuit;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The expected output of one distinct input.
#[derive(Clone, Debug)]
pub struct Reference {
    /// The serial report.
    pub report: AtpgReport,
    /// Its timing-free rendering — what every campaign must reproduce
    /// byte for byte.
    pub json: String,
    /// Emitted tests the oracle refuted (empty when sound).
    pub oracle_rejects: Vec<String>,
    /// Distinct tests the oracle confirmed.
    pub oracle_confirmed: usize,
    /// Distinct tests on which the oracle's state-set tracking
    /// overflowed: no verdict either way, so neither confirmed nor
    /// counted as a failure.
    pub oracle_undecided: usize,
    /// Broken on purpose by [`Reference::corrupt`].
    pub corrupted: bool,
}

impl Reference {
    /// The serial reference for `ckt` under `cfg`, with every distinct
    /// emitted test replayed once through the POR-off oracle (against
    /// the first fault whose record names it).  `Inconclusive` and
    /// `GoodInvalid` refute the test; `Overflow` decides nothing.
    ///
    /// # Errors
    ///
    /// The serial flow's own failure, as text.
    pub fn compute(ckt: &Circuit, cfg: &AtpgConfig) -> Result<Reference, String> {
        let report = run_atpg(ckt, cfg).map_err(|e| format!("{}: reference: {e}", ckt.name()))?;
        let k = cfg.cssg.settler(ckt).k;
        let mut oracle_rejects = Vec::new();
        let (mut oracle_confirmed, mut oracle_undecided) = (0, 0);
        for (ti, test) in report.tests.iter().enumerate() {
            let Some(rec) = report.records.iter().find(|r| r.test == Some(ti)) else {
                oracle_rejects.push(format!("{}: test {ti} detects no fault", ckt.name()));
                continue;
            };
            match validate_test(ckt, &rec.fault, test, k) {
                Verdict::Detects { .. } => oracle_confirmed += 1,
                Verdict::Overflow => oracle_undecided += 1,
                v => oracle_rejects.push(format!(
                    "{}: test {ti} for {} is {v:?}",
                    ckt.name(),
                    rec.fault.name(ckt)
                )),
            }
        }
        let json = report.to_json_value(false).render();
        Ok(Reference {
            report,
            json,
            oracle_rejects,
            oracle_confirmed,
            oracle_undecided,
            corrupted: false,
        })
    }

    /// The expected rendering when the same netlist is submitted under
    /// another circuit name.
    pub fn renamed_json(&self, name: &str) -> String {
        let mut r = self.report.clone();
        r.circuit = name.to_string();
        let mut json = r.to_json_value(false).render();
        if self.corrupted {
            json.push(' ');
        }
        json
    }

    /// Breaks the reference on purpose (the self-test of the check):
    /// neither its own rendering nor a renamed one matches any more.
    pub fn corrupt(&mut self) {
        self.json.push(' ');
        self.corrupted = true;
    }
}

/// Computes `f` over `items` on two threads (references and oracle
/// replays are outside every measured region), keeping order.
///
/// # Errors
///
/// The first error `f` returns.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> = (0..items.len()).map(|_| None).collect();
    let done: Vec<Vec<(usize, Result<R, String>)>> = thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= items.len() {
                            break mine;
                        }
                        mine.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item computed"))
        .collect()
}

/// Attempted/failed campaign counts with the first few failure reasons.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Campaigns attempted.
    pub attempted: u64,
    /// Campaigns that errored, were rejected, mismatched the reference
    /// or emitted a test the oracle refuted.
    pub failed: u64,
    /// Up to eight failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records a failed campaign.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Distinct outputs of one input, each with how many campaigns gave it.
type Distinct = Vec<(String, u64)>;

/// Campaign outputs collected during a run and checked against the
/// references afterwards, so the references (and the oracle's memory)
/// stay out of the measured region and out of `peak_rss_mb`.  Each
/// distinct output of an input is kept once, with its count.
#[derive(Debug, Default)]
pub struct Outputs {
    /// `(input, submitted-under name)` → distinct outputs and counts.
    seen: BTreeMap<(usize, Option<String>), Distinct>,
    labels: BTreeMap<usize, String>,
    errors: Tally,
}

impl Outputs {
    /// Records one campaign of `input`: its timing-free report or its
    /// error.  `renamed` is the circuit name it was submitted under when
    /// that differs from the reference's.
    pub fn add(
        &mut self,
        input: usize,
        label: &str,
        renamed: Option<String>,
        res: Result<String, String>,
    ) {
        match res {
            Err(e) => self.errors.fail(format!("{label}: {e}")),
            Ok(json) => {
                self.labels
                    .entry(input)
                    .or_insert_with(|| label.to_string());
                let outs = self.seen.entry((input, renamed)).or_default();
                match outs.iter_mut().find(|(s, _)| *s == json) {
                    Some(o) => o.1 += 1,
                    None => outs.push((json, 1)),
                }
            }
        }
    }

    /// Folds another collector in.
    pub fn merge(&mut self, other: Outputs) {
        for (k, outs) in other.seen {
            let mine = self.seen.entry(k).or_default();
            for (json, n) in outs {
                match mine.iter_mut().find(|(s, _)| *s == json) {
                    Some(o) => o.1 += n,
                    None => mine.push((json, n)),
                }
            }
        }
        for (k, v) in other.labels {
            self.labels.entry(k).or_insert(v);
        }
        self.errors.merge(other.errors);
    }

    /// Checks every output byte for byte against its reference; an input
    /// whose reference test the oracle refuted fails every campaign.
    pub fn check(self, refs: &[Reference]) -> Tally {
        let mut t = self.errors;
        for ((input, renamed), outs) in self.seen {
            let r = &refs[input];
            let want = renamed.map_or_else(|| r.json.clone(), |n| r.renamed_json(&n));
            let label = &self.labels[&input];
            for (json, n) in outs {
                for _ in 0..n {
                    if let Some(reject) = r.oracle_rejects.first() {
                        t.fail(reject.clone());
                    } else if json != want {
                        t.fail(format!("{label}: report differs from the serial reference"));
                    } else {
                        t.attempted += 1;
                    }
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_netlist::families::muller_pipeline;

    #[test]
    fn a_corrupt_reference_fails_renamed_submits_too() {
        let ckt = muller_pipeline(3);
        let mut r = Reference::compute(&ckt, &AtpgConfig::scaled(&ckt)).expect("reference");
        let outputs = |r: &Reference| {
            let mut o = Outputs::default();
            o.add(0, "m", None, Ok(r.json.clone()));
            o.add(0, "m", Some("m_c0_0".into()), Ok(r.renamed_json("m_c0_0")));
            o
        };
        let good = outputs(&r);
        assert_eq!(good.check(std::slice::from_ref(&r)).failed, 0);
        let submitted = outputs(&r);
        r.corrupt();
        let t = submitted.check(std::slice::from_ref(&r));
        assert_eq!((t.attempted, t.failed), (2, 2));
    }
}
