//! The per-layer ledger: spans recorded by the benchmark around calls
//! into each layer's public functions, rolled up into self time per
//! layer, and exported as a Chrome trace-event file.
//!
//! Self time subtracts a span's children only when they ran on the same
//! thread: a child on another thread overlaps its parent instead of
//! nesting in it, so subtracting it would attribute the parent negative
//! (or, summed, double-counted) time.

use crate::metrics::LAYERS;
use satpg_trace::{ArgValue, EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// The ledger layer its self time belongs to; `None` leaves it
    /// unattributed.
    pub layer: Option<&'static str>,
    /// Unique id (1-based); 0 is "no parent".
    pub id: u64,
    /// Parent span id.
    pub parent: u64,
    /// Recording thread.
    pub tid: u64,
    /// Start, microseconds since the shared epoch.
    pub start_us: f64,
    /// End, microseconds since the shared epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread span recorder.  With `enabled` off every call is a
/// no-op, so the same campaign code runs traced and untraced (the
/// untraced side of `trace_overhead_pct`, see [`Paired`]).
pub struct Recorder {
    epoch: Instant,
    tid: u64,
    id_base: u64,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder for thread `tid`; span ids are `tid << 32 | n`, so
    /// recorders of different threads never collide.
    pub fn new(epoch: Instant, tid: u64, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            tid,
            id_base: tid << 32,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Now, in this recorder's time base.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Converts an instant to this recorder's time base.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: Option<&'static str>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now_us();
        Open(Some(self.push(name, layer, start, f64::NAN)))
    }

    fn push(
        &mut self,
        name: &'static str,
        layer: Option<&'static str>,
        start: f64,
        end: f64,
    ) -> usize {
        let parent = self.stack.last().map(|&i| self.spans[i].id).unwrap_or(0);
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            id: self.id_base + idx as u64 + 1,
            parent,
            tid: self.tid,
            start_us: start,
            end_us: end,
        });
        if end.is_nan() {
            self.stack.push(idx);
        }
        idx
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_us();
        self.spans[idx].end_us = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, layer);
        let out = f();
        self.close(s);
        out
    }

    /// Records an already-measured interval as a closed span nested in
    /// the innermost open one (client-side event arrivals, or a duration
    /// the program reported for its own stage).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Option<&'static str>,
        start_us: f64,
        end_us: f64,
    ) {
        if self.enabled {
            self.push(name, layer, start_us, end_us.max(start_us));
        }
    }

    /// Opens a span at an already-measured start time.
    pub fn open_at(
        &mut self,
        name: &'static str,
        layer: Option<&'static str>,
        start_us: f64,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        Open(Some(self.push(name, layer, start_us, f64::NAN)))
    }

    /// Closes a span at an already-measured end time.
    pub fn close_at(&mut self, open: Open, end_us: f64) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_us = end_us.max(self.spans[idx].start_us);
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A traced campaign loop and its untraced twin: every campaign runs
/// once through a disabled recorder and once through the recording one,
/// alternating which goes first, so `trace_overhead_pct` compares the
/// same code on the same inputs and measures only the recording.
pub struct Paired {
    plain: Recorder,
    traced: Recorder,
    plain_us: f64,
    traced_us: f64,
    pairs: usize,
}

impl Paired {
    /// A pair of recorders for thread `tid`.
    pub fn new(epoch: Instant, tid: u64) -> Paired {
        Paired {
            plain: Recorder::new(epoch, tid, false),
            traced: Recorder::new(epoch, tid, true),
            plain_us: 0.0,
            traced_us: 0.0,
            pairs: 0,
        }
    }

    /// Runs `campaign` untraced and traced; returns both results, the
    /// untraced one first.
    pub fn run<T>(&mut self, mut campaign: impl FnMut(&mut Recorder) -> T) -> [T; 2] {
        let mut timed = |rec: &mut Recorder, total: &mut f64| {
            let t = Instant::now();
            let out = campaign(rec);
            *total += t.elapsed().as_secs_f64() * 1e6;
            out
        };
        let traced_first = self.pairs % 2 == 1;
        self.pairs += 1;
        if traced_first {
            let traced = timed(&mut self.traced, &mut self.traced_us);
            [timed(&mut self.plain, &mut self.plain_us), traced]
        } else {
            let plain = timed(&mut self.plain, &mut self.plain_us);
            [plain, timed(&mut self.traced, &mut self.traced_us)]
        }
    }

    /// How much longer the traced campaigns took, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.traced_us / self.plain_us.max(1e-9) - 1.0) * 100.0
    }

    /// The spans of the traced campaigns.
    pub fn into_spans(self) -> Vec<Span> {
        self.traced.into_spans()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children *on the same thread*.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].tid == s.tid {
                own[p] -= s.dur_us();
            }
        }
    }
    own
}

/// One campaign's ledger: self time per layer plus the remainder.
#[derive(Clone, Debug, Default)]
pub struct CampaignLedger {
    /// Wall time of the campaign's root span.
    pub wall_us: f64,
    /// Self time per layer (every entry of [`LAYERS`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall time no layer claims.
    pub unattributed_us: f64,
}

/// Rolls the spans up into one ledger per root span named `root`.
pub fn campaign_ledgers(spans: &[Span], root: &str) -> Vec<CampaignLedger> {
    let own = self_times(spans);
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // The root of each span: walk parents up to the top.
    let root_of = |mut i: usize| {
        while let Some(&p) = index.get(&spans[i].parent) {
            i = p;
        }
        i
    };
    let mut ledgers: BTreeMap<usize, CampaignLedger> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 && s.name == root {
            ledgers.insert(
                i,
                CampaignLedger {
                    wall_us: s.dur_us(),
                    layers: LAYERS.iter().map(|&l| (l, 0.0)).collect(),
                    unattributed_us: 0.0,
                },
            );
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let r = root_of(i);
        // Only same-thread descendants partition the root's wall time.
        if spans[r].tid != s.tid {
            continue;
        }
        if let (Some(l), Some(layer)) = (ledgers.get_mut(&r), s.layer) {
            *l.layers.entry(layer).or_insert(0.0) += own[i];
        }
    }
    ledgers
        .into_values()
        .map(|mut l| {
            l.unattributed_us = l.wall_us - l.layers.values().sum::<f64>();
            l
        })
        .collect()
}

/// Renders spans as a Chrome trace-event file (`satpg trace-check`
/// validates it): per thread, a depth-first Begin/End walk, so events
/// nest and timestamps never go backwards.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let tid_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.tid)).collect();
    for (i, s) in spans.iter().enumerate() {
        // Roots, and children of spans on another thread, start a tree
        // of their own on their thread.
        let key = if tid_of.get(&s.parent) == Some(&s.tid) {
            s.parent
        } else {
            0
        };
        children.entry(key).or_default().push(i);
    }
    for v in children.values_mut() {
        v.sort_by(|&a, &b| spans[a].start_us.total_cmp(&spans[b].start_us));
    }
    let mut events = Vec::with_capacity(spans.len() * 2);
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut last = 0u64;
        let roots: Vec<usize> = children
            .get(&0)
            .map(|v| v.iter().copied().filter(|&i| spans[i].tid == tid).collect())
            .unwrap_or_default();
        for r in roots {
            walk(spans, &children, r, &mut last, &mut events);
        }
    }
    satpg_trace::chrome::render(&events, "satpg-perfbench")
}

fn walk(
    spans: &[Span],
    children: &BTreeMap<u64, Vec<usize>>,
    i: usize,
    last: &mut u64,
    out: &mut Vec<TraceEvent>,
) {
    let s = &spans[i];
    let begin = (s.start_us.max(0.0) as u64).max(*last);
    *last = begin;
    out.push(TraceEvent {
        kind: EventKind::Begin,
        name: s.name,
        id: s.id,
        parent: s.parent,
        tid: s.tid,
        ts_us: begin,
        args: s
            .layer
            .map(|l| vec![("layer", ArgValue::Str(l.to_string()))])
            .unwrap_or_default(),
    });
    for &c in children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]) {
        walk(spans, children, c, last, out);
    }
    let end = (s.end_us.max(0.0) as u64).max(*last);
    *last = end;
    out.push(TraceEvent {
        kind: EventKind::End,
        name: s.name,
        id: s.id,
        parent: s.parent,
        tid: s.tid,
        ts_us: end,
        args: Vec::new(),
    });
}

/// The schema check `satpg trace-check` applies: per (pid, tid), Begin
/// and End balance and timestamps never decrease.  Returns the span
/// count.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    use satpg_core::json::Json;
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no `traceEvents` array")?;
    let mut depth: BTreeMap<(u128, u128), i64> = BTreeMap::new();
    let mut last: BTreeMap<(u128, u128), u128> = BTreeMap::new();
    let mut spans = 0;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: no ph"))?;
        if ph == "M" {
            continue;
        }
        let key = (
            ev.get("pid").and_then(Json::as_u128).unwrap_or(0),
            ev.get("tid").and_then(Json::as_u128).unwrap_or(0),
        );
        let ts = ev
            .get("ts")
            .and_then(Json::as_u128)
            .ok_or(format!("event {i}: no ts"))?;
        if last.get(&key).is_some_and(|&p| ts < p) {
            return Err(format!("event {i}: ts went backwards"));
        }
        last.insert(key, ts);
        let d = depth.entry(key).or_insert(0);
        match ph {
            "B" => {
                *d += 1;
                spans += 1;
            }
            "E" => {
                *d -= 1;
                if *d < 0 {
                    return Err(format!("event {i}: E without B"));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other}")),
        }
    }
    if depth.values().any(|&d| d != 0) {
        return Err("unclosed spans".to_string());
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Option<&'static str>,
        id: u64,
        parent: u64,
        tid: u64,
        s: f64,
        e: f64,
    ) -> Span {
        Span {
            name,
            layer,
            id,
            parent,
            tid,
            start_us: s,
            end_us: e,
        }
    }

    #[test]
    fn cross_thread_children_are_not_subtracted() {
        // A 261 us build whose two shard threads ran 250 us each: the
        // parent keeps its full duration as self time.
        let spans = vec![
            span("campaign", None, 1, 0, 1, 0.0, 300.0),
            span("cssg.build", Some("core.cssg"), 2, 1, 1, 10.0, 271.0),
            span("cssg.shard", Some("core.cssg"), 3, 2, 2, 12.0, 262.0),
            span("cssg.shard", Some("core.cssg"), 4, 2, 3, 13.0, 263.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[1], 261.0);
        let ledgers = campaign_ledgers(&spans, "campaign");
        assert_eq!(ledgers.len(), 1);
        assert_eq!(ledgers[0].layers["core.cssg"], 261.0);
        assert_eq!(ledgers[0].unattributed_us, 39.0);
    }

    #[test]
    fn layers_and_remainder_partition_the_wall_time() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 1, true);
        let root = rec.open("campaign", None);
        rec.time("a", Some("stg"), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let t = rec.open("targeted", Some("core.targeted"));
        rec.time("three_phase", Some("core.targeted"), || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.close(t);
        rec.close(root);
        let spans = rec.into_spans();
        let l = &campaign_ledgers(&spans, "campaign")[0];
        let sum: f64 = l.layers.values().sum::<f64>() + l.unattributed_us;
        assert!((sum - l.wall_us).abs() < 1e-6);
        assert!(l.layers["stg"] >= 2000.0);
        let text = chrome_trace(&spans);
        assert_eq!(check_chrome_trace(&text), Ok(4));
    }

    #[test]
    fn paired_runs_both_sides_and_keeps_the_traced_spans() {
        let mut p = Paired::new(Instant::now(), 1);
        for _ in 0..3 {
            assert_eq!(p.run(|rec| rec.time("campaign", None, || 7)), [7, 7]);
        }
        assert!(p.overhead_pct().is_finite());
        assert_eq!(p.into_spans().len(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 1, false);
        let s = rec.open("campaign", None);
        rec.record("x", Some("serve"), 0.0, 1.0);
        rec.close(s);
        assert!(rec.into_spans().is_empty());
    }
}
