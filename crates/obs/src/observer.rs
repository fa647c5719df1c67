//! The `Observer` trait and the `ObsLink` emission seam.

use crate::event::{ObsEvent, SRC_CLUSTER};
use agp_sim::SimTime;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A sink for simulation events. Implementations must tolerate being
/// called from any instrumented layer in event order; `at` is the
/// simulation instant, `src` the emitting component's tag (node index,
/// job index, or [`SRC_CLUSTER`]).
pub trait Observer {
    /// Deliver one event.
    fn on_event(&mut self, at: SimTime, src: u32, ev: &ObsEvent);
}

/// A type-erased, shareable sink handle.
///
/// Sinks are shared so the caller can keep a typed `Arc<Mutex<Collector>>`
/// and read it back after the run while the simulation holds the erased
/// clone.
pub type SharedSink = Arc<Mutex<dyn Observer + Send>>;

/// Wrap a sink for sharing between the caller and an [`ObsLink`].
pub fn shared<T: Observer + Send + 'static>(sink: T) -> Arc<Mutex<T>> {
    Arc::new(Mutex::new(sink))
}

/// Take a [`shared`] sink back once the run has dropped every
/// [`ObsLink`] that held it (a poisoned lock still yields the sink).
pub fn unwrap_shared<T>(sink: Arc<Mutex<T>>) -> Result<T, String> {
    let mutex = Arc::try_unwrap(sink)
        .map_err(|_| "observer sink still shared after the run".to_string())?;
    Ok(mutex
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

struct LinkInner {
    sinks: Vec<SharedSink>,
    /// Last event-loop instant, maintained by the simulation via
    /// [`ObsLink::tick`]. Lets deep call sites without a `now` parameter
    /// (eviction, background-writer internals) emit correctly stamped
    /// events without threading timestamps through every mechanism API.
    clock: Mutex<SimTime>,
}

/// Lock `m`, recovering the data of a poisoned lock.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The emission handle instrumented components hold.
///
/// The default ([`ObsLink::disabled`]) has no sinks: `emit` is then a
/// single `Option` check and the event-constructing closure is never
/// called, so disabled tracing compiles down to nothing on the hot path.
/// Clones share sinks and clock; [`ObsLink::with_src`] re-tags a clone
/// for a different emitting component.
#[derive(Clone, Default)]
pub struct ObsLink {
    inner: Option<Arc<LinkInner>>,
    src: u32,
}

impl ObsLink {
    /// The no-op link (same as `ObsLink::default()`).
    pub fn disabled() -> Self {
        ObsLink::default()
    }

    /// A link delivering to one sink.
    pub fn to(sink: SharedSink) -> Self {
        ObsLink::fanout(vec![sink])
    }

    /// A link fanning out to several sinks, in order.
    pub fn fanout(sinks: Vec<SharedSink>) -> Self {
        if sinks.is_empty() {
            return ObsLink::default();
        }
        ObsLink {
            inner: Some(Arc::new(LinkInner {
                sinks,
                clock: Mutex::new(SimTime::ZERO),
            })),
            src: SRC_CLUSTER,
        }
    }

    /// A clone of this link tagged with `src` (shares sinks and clock).
    pub fn with_src(&self, src: u32) -> Self {
        ObsLink {
            inner: self.inner.clone(),
            src,
        }
    }

    /// This link's source tag.
    pub fn src(&self) -> u32 {
        self.src
    }

    /// Whether any sink is attached.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advance the shared clock; the simulation loop calls this once per
    /// popped event so [`ObsLink::emit_clock`] sites are stamped with the
    /// current simulation instant.
    pub fn tick(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            *lock(&inner.clock) = now;
        }
    }

    /// The shared clock's current value ([`SimTime::ZERO`] when disabled).
    pub fn clock(&self) -> SimTime {
        match &self.inner {
            Some(inner) => *lock(&inner.clock),
            None => SimTime::ZERO,
        }
    }

    /// Emit an event at an explicit instant. `make` runs only when a sink
    /// is attached.
    #[inline]
    pub fn emit<F: FnOnce() -> ObsEvent>(&self, at: SimTime, make: F) {
        if let Some(inner) = &self.inner {
            deliver(inner, at, self.src, make());
        }
    }

    /// Emit an event stamped with the shared clock (for call sites without
    /// a `now` of their own). `make` runs only when a sink is attached.
    #[inline]
    pub fn emit_clock<F: FnOnce() -> ObsEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            let at = *lock(&inner.clock);
            deliver(inner, at, self.src, make());
        }
    }
}

fn deliver(inner: &LinkInner, at: SimTime, src: u32, ev: ObsEvent) {
    let _perf = agp_perf::scope(agp_perf::Span::ObsEmit);
    for sink in &inner.sinks {
        lock(sink).on_event(at, src, &ev);
    }
}

impl fmt::Debug for ObsLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsLink")
            .field("enabled", &self.enabled())
            .field("sinks", &self.inner.as_ref().map_or(0, |i| i.sinks.len()))
            .field("src", &self.src)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        seen: Vec<(u64, u32, &'static str)>,
    }

    impl Observer for Counting {
        fn on_event(&mut self, at: SimTime, src: u32, ev: &ObsEvent) {
            self.seen.push((at.as_us(), src, ev.name()));
        }
    }

    #[test]
    fn disabled_link_never_constructs_events() {
        let link = ObsLink::disabled();
        assert!(!link.enabled());
        let mut called = false;
        link.emit(SimTime::ZERO, || {
            called = true;
            ObsEvent::BgTick { pid: 0, pages: 0 }
        });
        link.emit_clock(|| {
            called = true;
            ObsEvent::BgTick { pid: 0, pages: 0 }
        });
        assert!(!called, "closure must not run without sinks");
    }

    #[test]
    fn emit_delivers_with_src_and_time() {
        let sink = shared(Counting::default());
        let link = ObsLink::to(sink.clone()).with_src(3);
        link.emit(SimTime::from_us(42), || ObsEvent::ReadaheadHit {
            pid: 1,
            page: 2,
        });
        let seen = &sink.lock().unwrap().seen;
        assert_eq!(seen.as_slice(), &[(42, 3, "readahead_hit")]);
    }

    #[test]
    fn clock_stamps_deep_call_sites() {
        let sink = shared(Counting::default());
        let link = ObsLink::to(sink.clone());
        let node_link = link.with_src(0);
        link.tick(SimTime::from_ms(7)); // clones share the clock
        node_link.emit_clock(|| ObsEvent::BgTick { pid: 9, pages: 4 });
        let seen = &sink.lock().unwrap().seen;
        assert_eq!(seen.as_slice(), &[(7_000, 0, "bg_tick")]);
    }

    #[test]
    fn fanout_delivers_in_order_to_all() {
        let a = shared(Counting::default());
        let b = shared(Counting::default());
        let link = ObsLink::fanout(vec![a.clone(), b.clone()]).with_src(1);
        link.emit(SimTime::ZERO, || ObsEvent::BgTick { pid: 0, pages: 1 });
        assert_eq!(a.lock().unwrap().seen.len(), 1);
        assert_eq!(b.lock().unwrap().seen.len(), 1);
    }

    #[test]
    fn empty_fanout_is_disabled() {
        assert!(!ObsLink::fanout(Vec::new()).enabled());
    }
}
