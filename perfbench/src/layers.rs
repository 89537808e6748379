//! Per-layer split of a traced request.
//!
//! The program's spans arrive in each `Report.trace`. Every instant a
//! span covers is charged to exactly one layer: the innermost one, by
//! the fixed nesting order of [`Layer`] (compilation runs inside
//! sampling, sampling and paving inside the analyzer's factor work, the
//! analysis after symbolic execution, and everything after the queue
//! wait). A layer's self time is therefore its spans' union minus the
//! part covered by layers nested inside it, and the request's round trip
//! minus the union of all spans is time no span accounts for.

use qcoral_obs::SpanRecord;

/// The program's layers that record spans, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Scheduler,
    Symexec,
    Analyzer,
    Mc,
    Icp,
    Tape,
}

pub const LAYERS: usize = 6;

/// The layer owning a span, by span name.
pub fn layer_of(span: &str) -> Option<Layer> {
    Some(match span {
        "queue_wait" => Layer::Scheduler,
        "parse" | "symexec" => Layer::Symexec,
        "analyze" | "analyze_iterative" | "pc" | "factor" | "prep" => Layer::Analyzer,
        "sample" | "round" | "is_escalate" => Layer::Mc,
        "paving" => Layer::Icp,
        "compile" => Layer::Tape,
        _ => return None,
    })
}

/// One request's split, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    /// Self time per layer, indexed by `Layer as usize`.
    pub self_us: [u64; LAYERS],
    /// Time covered by any span.
    pub covered_us: u64,
    /// Total duration of `parse` spans.
    pub parse_us: u64,
    /// Total duration of `symexec` spans.
    pub exec_us: u64,
}

/// Splits one request's spans by layer (see the module docs).
pub fn split(spans: &[SpanRecord]) -> Split {
    let mut out = Split::default();
    // (time, layer, +1 open / -1 close); closes sort before opens at
    // the same instant so back-to-back spans never overlap.
    let mut events: Vec<(u64, i32, usize)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        match s.name.as_str() {
            "parse" => out.parse_us += s.dur_us,
            "symexec" => out.exec_us += s.dur_us,
            _ => {}
        }
        if let Some(layer) = layer_of(&s.name) {
            events.push((s.start_us, 1, layer as usize));
            events.push((s.start_us + s.dur_us, -1, layer as usize));
        }
    }
    events.sort_unstable();
    let mut open = [0i32; LAYERS];
    let mut last = 0u64;
    for (t, delta, layer) in events {
        if let Some(inner) = (0..LAYERS).rev().find(|&l| open[l] > 0) {
            out.self_us[inner] += t - last;
            out.covered_us += t - last;
        }
        open[layer] += delta;
        last = t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            cat: String::new(),
            start_us,
            dur_us,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn inner_layers_take_their_share_of_outer_spans() {
        let s = split(&[
            span("queue_wait", 0, 10),
            span("symexec", 10, 30),
            span("analyze", 40, 100),
            span("factor", 45, 90),
            span("paving", 50, 20),
            span("sample", 70, 40),
            span("compile", 75, 5),
        ]);
        assert_eq!(s.self_us[Layer::Scheduler as usize], 10);
        assert_eq!(s.self_us[Layer::Symexec as usize], 30);
        assert_eq!(s.self_us[Layer::Icp as usize], 20);
        assert_eq!(s.self_us[Layer::Tape as usize], 5);
        assert_eq!(s.self_us[Layer::Mc as usize], 35);
        assert_eq!(s.self_us[Layer::Analyzer as usize], 100 - 20 - 40);
        assert_eq!(s.covered_us, 140);
        assert_eq!(s.exec_us, 30);
    }
}
