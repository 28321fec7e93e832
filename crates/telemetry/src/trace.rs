//! Span tracing with a per-run Chrome trace-event recorder.
//!
//! The hot-path contract: when no [`TraceSession`] is active, creating a
//! span costs one relaxed atomic load and a branch — no allocation, no
//! clock read, no lock.  When a session is active, each span reads the
//! monotonic clock twice (construction and drop) and pushes one event into
//! a global vector under a mutex; contention only exists while a trace is
//! actually being recorded.  The one exception is [`timed`], whose clock
//! runs either way: it is for phases whose duration the caller reports
//! anyway, so the report and the trace read one clock.
//!
//! Attribution: every event carries a *lane* (the thread's row in the
//! rendered timeline — ready-queue workers claim `worker-N` lanes, other
//! threads get a lane named after the thread) and, when the span ran under
//! a scheduler task, the task id plus how long that task sat in the ready
//! queue before a worker picked it up.  The Chrome/Perfetto rendering is
//! one `pid`, one `tid` per lane, `ph:"X"` complete events, and a
//! `thread_name` metadata record per lane.
//!
//! Only one session records at a time ([`start`] returns `None` when one
//! is already active); callers that multiplex traced work (the server's
//! `?trace=1` path) serialize around that.

use crate::json::escape_into;
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Whether a trace session is currently recording (the span fast-path gate).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Guards session exclusivity: set for the lifetime of a [`TraceSession`].
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The process-wide monotonic epoch all event timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (the clock spans record in).
/// Public so schedulers can stamp queue-wait intervals on the same scale.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Recorded events of the active session.
fn events() -> &'static Mutex<Vec<TraceEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Lane id → name, process-wide.  Lane identity is the *name*: a worker
/// thread created for a later run reuses the `worker-0` lane of an earlier
/// one, so a session's timeline has exactly one row per distinct lane name.
fn lanes() -> &'static Mutex<Vec<String>> {
    static LANES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    LANES.get_or_init(|| Mutex::new(Vec::new()))
}

fn register_lane(name: &str) -> u32 {
    let mut lanes = lanes().lock().expect("trace lanes lock");
    if let Some(id) = lanes.iter().position(|n| n == name) {
        return id as u32;
    }
    lanes.push(name.to_string());
    (lanes.len() - 1) as u32
}

thread_local! {
    /// This thread's lane, assigned lazily from the thread name.
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    /// The scheduler task this thread is currently running, if any:
    /// `(task id, queue-wait ns)`.
    static TASK: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn lane_id() -> u32 {
    LANE.with(|lane| match lane.get() {
        Some(id) => id,
        None => {
            let thread = std::thread::current();
            let id = register_lane(thread.name().unwrap_or("driver"));
            lane.set(Some(id));
            id
        }
    })
}

/// Claims a named lane for the current thread (ready-queue workers call
/// this with `worker-N` so the timeline has one row per worker).
pub fn claim_lane(name: &str) {
    let id = register_lane(name);
    LANE.with(|lane| lane.set(Some(id)));
}

/// Whether a trace session is recording; the guard instrumented code uses
/// to skip building span names.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Marks the current thread as running scheduler task `id`, which waited
/// `queue_wait_ns` in the ready queue; spans created until the guard drops
/// carry that attribution.  Free when no session is active.
pub fn task_scope(id: u64, queue_wait_ns: u64) -> TaskScope {
    if !enabled() {
        return TaskScope {
            prev: None,
            set: false,
        };
    }
    let prev = TASK.with(|task| task.replace(Some((id, queue_wait_ns))));
    TaskScope { prev, set: true }
}

/// Guard of [`task_scope`]; restores the previous task attribution on drop.
pub struct TaskScope {
    prev: Option<(u64, u64)>,
    set: bool,
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        if self.set {
            TASK.with(|task| task.set(self.prev));
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (phase, procedure, task description).
    pub name: Cow<'static, str>,
    /// Coarse category: `phase`, `task`, `fm`, `cache`, `solve`, …
    pub cat: &'static str,
    /// Timeline row (see [`claim_lane`]).
    pub lane: u32,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// `(task id, queue-wait ns)` of the scheduler task this span ran under.
    pub task: Option<(u64, u64)>,
}

/// A live span; records itself when dropped.  Inert (and allocation-free)
/// when no session is active.
pub struct Span {
    inner: Option<(Cow<'static, str>, &'static str, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, cat, start_ns)) = self.inner.take() {
            record(name, cat, start_ns, now_ns().saturating_sub(start_ns));
        }
    }
}

/// Pushes one event onto the active session's buffer.  A session that
/// ended mid-span drops the event rather than leak it into the next
/// session's buffer.
fn record(name: Cow<'static, str>, cat: &'static str, start_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    let event = TraceEvent {
        name,
        cat,
        lane: lane_id(),
        start_ns,
        dur_ns,
        task: TASK.with(|task| task.get()),
    };
    events().lock().expect("trace events lock").push(event);
}

/// Opens a span with a static name.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some((Cow::Borrowed(name), cat, now_ns())),
    }
}

/// Opens a span whose name is built only if a session is recording.
#[inline]
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some((Cow::Owned(name()), cat, now_ns())),
    }
}

/// A span that is also a stopwatch: its clock runs whether or not a session
/// records, so a caller can both trace a phase and account its time with
/// one pair of clock reads.  End it with [`Timed::end`].
#[must_use = "a timed span records nothing until it is ended"]
pub struct Timed {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
}

/// Opens a [`Timed`] span with a static name.
#[inline]
pub fn timed(cat: &'static str, name: &'static str) -> Timed {
    Timed {
        cat,
        name,
        start_ns: now_ns(),
    }
}

impl Timed {
    /// Ends the span and returns its duration; when a session is active it
    /// records exactly that interval.
    pub fn end(self) -> Duration {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        record(Cow::Borrowed(self.name), self.cat, self.start_ns, dur_ns);
        Duration::from_nanos(dur_ns)
    }
}

/// An exclusive recording session; end it with [`TraceSession::finish`].
pub struct TraceSession {
    finished: bool,
}

/// Starts recording, or returns `None` if a session is already active.
pub fn start() -> Option<TraceSession> {
    if ACTIVE
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return None;
    }
    events().lock().expect("trace events lock").clear();
    ENABLED.store(true, Ordering::Release);
    Some(TraceSession { finished: false })
}

impl TraceSession {
    /// Stops recording and returns the captured trace.
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        ENABLED.store(false, Ordering::Release);
        let events = std::mem::take(&mut *events().lock().expect("trace events lock"));
        let lanes = lanes().lock().expect("trace lanes lock").clone();
        ACTIVE.store(false, Ordering::Release);
        Trace { events, lanes }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::Release);
            events().lock().expect("trace events lock").clear();
            ACTIVE.store(false, Ordering::Release);
        }
    }
}

/// A finished recording.
pub struct Trace {
    /// Every span captured, in completion order.
    pub events: Vec<TraceEvent>,
    /// Lane id → name (ids index this vector; not all lanes need appear in
    /// `events`).
    pub lanes: Vec<String>,
}

impl Trace {
    /// The distinct lane names that actually carry events.
    pub fn active_lanes(&self) -> Vec<&str> {
        let mut seen: Vec<u32> = self.events.iter().map(|e| e.lane).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.iter()
            .filter_map(|&id| self.lanes.get(id as usize).map(String::as_str))
            .collect()
    }

    /// Serializes the trace as Chrome trace-event JSON: one `thread_name`
    /// metadata record per active lane, then one `ph:"X"` complete event
    /// per span (timestamps in microseconds, as the format requires).
    /// Loadable by `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut seen: Vec<u32> = self.events.iter().map(|e| e.lane).collect();
        seen.sort_unstable();
        seen.dedup();
        for &lane in &seen {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\""
            ));
            escape_into(
                &mut out,
                self.lanes.get(lane as usize).map_or("?", String::as_str),
            );
            out.push_str("\"}}");
        }
        for event in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_into(&mut out, &event.name);
            out.push_str("\",\"cat\":\"");
            escape_into(&mut out, event.cat);
            out.push_str(&format!(
                "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                event.lane,
                event.start_ns as f64 / 1000.0,
                event.dur_ns as f64 / 1000.0,
            ));
            if let Some((task, wait_ns)) = event.task {
                out.push_str(&format!(
                    ",\"args\":{{\"task\":{task},\"queue_wait_ms\":{:.3}}}",
                    wait_ns as f64 / 1e6
                ));
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_captures_spans_lanes_and_task_attribution() {
        let session = start().expect("no other session in this test binary");
        claim_lane("worker-test");
        {
            let _task = task_scope(7, 1_500_000);
            let _span = span("task", "component demo");
        }
        {
            let _span = span_with("phase", || "parse demo".to_string());
        }
        let timed_for = timed("phase", "timed demo").end();
        let trace = session.finish();
        assert!(!enabled());
        assert_eq!(trace.events.len(), 3);
        // A timed span records exactly the interval it returns.
        assert_eq!(trace.events[2].name, "timed demo");
        assert_eq!(u128::from(trace.events[2].dur_ns), timed_for.as_nanos());
        let component = &trace.events[0];
        assert_eq!(component.name, "component demo");
        assert_eq!(component.task, Some((7, 1_500_000)));
        assert!(trace.active_lanes().contains(&"worker-test"));
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"queue_wait_ms\":1.500"));
        assert!(json.contains("\"parse demo\""));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        // A second session can start once the first finished.
        let again = start().expect("session slot released");
        drop(again);
        assert!(!enabled());
    }
}
