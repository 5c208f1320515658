//! Span recording for the traced pass. Spans are recorded in memory by
//! the benchmark's own code around its calls into each layer, and written
//! out as Chrome trace-event JSON when the pass ends. End-to-end metrics
//! are never measured with a recorder attached.

use crate::estimator::median;
use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a span's interval was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Both ends read from the benchmark's clock around a call.
    Timed,
    /// Reconstructed from durations the program reported (a reply's
    /// `queue_us`/`compute_us`, a batch's `stage_timings`). The duration
    /// is the program's; the placement inside the parent is ours.
    Reported,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
    pub source: Source,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Thread lane in the exported trace, and the lane's name there.
    pub lane: u32,
    pub label: String,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`; recorders of one
    /// pass share an origin so their lanes line up.
    pub fn new(origin: Instant, lane: u32, label: impl Into<String>) -> Self {
        Self { origin, lane, label: label.into(), spans: Vec::new() }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a timed (root) span and returns its index; its children are
    /// what the program reports about it, see [`Recorder::reported`].
    pub fn timed(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent: None,
            request,
            source: Source::Timed,
        });
        self.spans.len() - 1
    }

    /// Lays `children` (name, reported duration) end to end inside span
    /// `parent`, finishing where the parent finishes: what the program
    /// reports happened last before the reply came back, and whatever the
    /// children do not cover is the parent's own time in front of them.
    /// Children that would start before the parent are clipped to it.
    pub fn reported(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        let (parent_start, parent_end, request) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.request)
        };
        let total: u64 = children.iter().map(|(_, d)| duration_ns(*d)).sum();
        let mut at = parent_end.saturating_sub(total).max(parent_start);
        for &(name, duration) in children {
            let end = (at + duration_ns(duration)).min(parent_end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                request,
                source: Source::Reported,
            });
            at = end;
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once and
/// children are clipped to the parent, so self time is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: call count, median duration and median self time (µs).
pub fn summarize(recorders: &[Recorder]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for recorder in recorders {
        let selfs = self_times_ns(&recorder.spans);
        for (span, self_ns) in recorder.spans.iter().zip(selfs) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.duration_ns() as f64 / 1e3);
            entry.1.push(self_ns as f64 / 1e3);
        }
    }
    by_name
        .into_iter()
        .map(|(name, (durations, selfs))| {
            let count = durations.len();
            (name, (count, median(&durations).unwrap_or(0.0), median(&selfs).unwrap_or(0.0)))
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, one named `tid` per recorder lane. Span ids are
/// `lane:index`, so `args.parent` names an event of the same lane.
pub fn chrome_trace(recorders: &[Recorder]) -> Json {
    let mut events = Vec::new();
    for recorder in recorders {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(f64::from(recorder.lane))),
            ("args", Json::obj([("name", Json::str(recorder.label.clone()))])),
        ]));
        for (index, span) in recorder.spans.iter().enumerate() {
            let mut args = vec![
                ("id".to_string(), Json::str(format!("{}:{index}", recorder.lane))),
                ("request".to_string(), Json::Num(span.request as f64)),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent".into(), Json::str(format!("{}:{parent}", recorder.lane))));
            }
            events.push(Json::obj([
                ("name", Json::str(span.name)),
                (
                    "cat",
                    Json::str(match span.source {
                        Source::Timed => "timed",
                        Source::Reported => "reported",
                    }),
                ),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(recorder.lane))),
                ("args", Json::Obj(args)),
            ]));
        }
    }
    Json::obj([("displayTimeUnit", Json::str("ns")), ("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, request: 0, source: Source::Timed }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 ⊃ child 10..60 ⊃ grandchild 20..30; the grandchild
        // comes out of the child, not out of the root.
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..50 and 30..70 overlap by 20; 90..130 overhangs the
        // parent's end and is clipped to 90..100; 40..45 is inside the
        // first. Covered: 10..70 and 90..100 = 70.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
            span(40, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
        // A child covering the whole parent leaves zero, never negative.
        let full = [span(10, 20, None), span(0, 50, Some(0))];
        assert_eq!(self_times_ns(&full)[0], 0);
    }

    #[test]
    fn reported_children_end_with_their_parent() {
        let origin = Instant::now();
        let mut recorder = Recorder::new(origin, 0, "test");
        let parent = recorder.timed(
            "request",
            origin + Duration::from_micros(100),
            origin + Duration::from_micros(500),
            7,
        );
        recorder.reported(
            parent,
            &[("queue", Duration::from_micros(50)), ("compute", Duration::from_micros(150))],
        );
        let [_, queue, compute] = &recorder.spans[..] else { panic!("three spans") };
        assert_eq!((queue.start_ns, queue.end_ns), (300_000, 350_000));
        assert_eq!((compute.start_ns, compute.end_ns), (350_000, 500_000));
        assert_eq!(compute.request, 7);
        assert_eq!(compute.source, Source::Reported);
        assert_eq!(self_times_ns(&recorder.spans)[0], 200_000);
        // Children longer than the parent are clipped, not negative.
        recorder.reported(parent, &[("long", Duration::from_millis(5))]);
        assert_eq!(recorder.spans[3].start_ns, 100_000);
        assert_eq!(recorder.spans[3].end_ns, 500_000);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let origin = Instant::now();
        let mut recorder = Recorder::new(origin, 3, "lane three");
        let parent = recorder.timed("a", origin, origin + Duration::from_micros(9), 1);
        recorder.reported(parent, &[("b", Duration::from_micros(4))]);
        let trace = chrome_trace(&[recorder]);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "one lane name and two spans");
        assert_eq!(
            events[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("lane three")
        );
        assert_eq!(events[2].get("cat").unwrap().as_str(), Some("reported"));
        assert_eq!(events[2].get("args").unwrap().get("parent").unwrap().as_str(), Some("3:0"));
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(4.0));
        let summary = summarize(&[Recorder::new(origin, 0, "empty")]);
        assert!(summary.is_empty());
    }
}
