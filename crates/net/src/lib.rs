//! # agp-net — the cluster interconnect model
//!
//! The paper's testbed connects its nodes with a 100 Mbps Ethernet switch
//! (§4). The relevant property for the experiments is not protocol detail
//! but the *synchronization coupling* it creates: parallel NPB ranks
//! barrier every iteration, so one node still paging holds every other
//! node's rank hostage. Adaptive paging compacts page-in bursts to the
//! start of the quantum *simultaneously on all nodes*, which is exactly
//! what makes the parallel numbers in Figs. 8–9 better than serial ones.
//!
//! This crate provides:
//! * [`NetParams`] — latency/bandwidth cost model (defaults: 100 Mbps,
//!   100 µs one-way latency, the class of hardware in the paper),
//! * [`Barrier`] — an arrival counter that reports the release instant of
//!   a job-wide barrier,
//! * message/collective cost helpers used by the workload models.

#![warn(missing_docs)]

use agp_obs::{ObsEvent, ObsLink};
use agp_sim::{SimDur, SimTime};

/// Interconnect cost parameters.
#[derive(Clone, Debug)]
pub struct NetParams {
    /// One-way small-message latency.
    pub latency: SimDur,
    /// Link bandwidth in megabits per second (100 for the paper's switch).
    pub bandwidth_mbps: u64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            latency: SimDur::from_us(100),
            bandwidth_mbps: 100,
        }
    }
}

impl NetParams {
    /// Time to move `bytes` point-to-point: latency + serialization.
    pub fn xfer_dur(&self, bytes: u64) -> SimDur {
        // bits / (Mbps · 10^6 b/s) seconds = bits / Mbps µs/10^0... careful:
        // bytes*8 bits at `bandwidth_mbps` Mb/s takes bytes*8 / mbps µs.
        let ser_us = (bytes * 8).div_ceil(self.bandwidth_mbps.max(1));
        self.latency + SimDur::from_us(ser_us)
    }

    /// Completion lag of an `n`-way barrier after the last arrival: a
    /// log-tree of small messages.
    pub fn barrier_dur(&self, n: u32) -> SimDur {
        if n <= 1 {
            return SimDur::ZERO;
        }
        let rounds = (32 - (n - 1).leading_zeros()) as u64; // ceil(log2 n)
        SimDur::from_us(
            self.latency
                .as_us()
                .saturating_mul(2)
                .saturating_mul(rounds),
        )
    }

    /// Cost of an `n`-way all-to-all of `bytes` per rank pair (used by the
    /// IS bucket redistribution model).
    pub fn alltoall_dur(&self, n: u32, bytes_per_pair: u64) -> SimDur {
        if n <= 1 {
            return SimDur::ZERO;
        }
        let peers = (n - 1) as u64;
        self.xfer_dur(bytes_per_pair * peers) + self.barrier_dur(n)
    }
}

/// A reusable job-wide barrier: counts arrivals and reports the release
/// instant once everyone has arrived. Automatically resets for the next
/// iteration's barrier. It keeps no deadline: a simulation that loses
/// a release sends it again on its own timer, and [`Barrier::reset`]
/// abandons an episode.
#[derive(Clone, Debug)]
pub struct Barrier {
    size: u32,
    arrived: Vec<bool>,
    count: u32,
    /// Completed barrier episodes (diagnostics / tests).
    pub episodes: u64,
    /// First arrival instant of the current episode (for skew tracking).
    first_arrival: Option<SimTime>,
    obs: ObsLink,
}

impl Barrier {
    /// A barrier over `size` ranks.
    pub fn new(size: u32) -> Self {
        Barrier {
            size: size.max(1),
            arrived: vec![false; size.max(1) as usize],
            count: 0,
            episodes: 0,
            first_arrival: None,
            obs: ObsLink::disabled(),
        }
    }

    /// Attach an observation link (`barrier_wait` events on each release,
    /// carrying the first-to-last arrival skew).
    pub fn set_observer(&mut self, obs: ObsLink) {
        self.obs = obs;
    }

    /// Number of participating ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Ranks arrived so far in the current episode.
    pub fn waiting(&self) -> u32 {
        self.count
    }

    /// Abandon the in-flight episode (crash recovery): forget all
    /// arrivals without counting an episode.
    /// Returns how many ranks were waiting.
    pub fn reset(&mut self) -> u32 {
        let waiting = self.count;
        self.arrived.fill(false);
        self.count = 0;
        self.first_arrival = None;
        waiting
    }

    /// Rank `rank` arrives at `now`. Returns `Some(release_instant)` when
    /// this arrival completes the barrier (and the barrier resets);
    /// `None` while others are still missing.
    ///
    /// Double arrival by the same rank within an episode indicates a
    /// simulation bug and panics in debug builds.
    pub fn arrive(&mut self, rank: u32, now: SimTime, net: &NetParams) -> Option<SimTime> {
        let _perf = agp_perf::scope(agp_perf::Span::NetBarrier);
        let r = rank as usize;
        debug_assert!(!self.arrived[r], "rank {rank} arrived twice at one barrier");
        if self.arrived[r] {
            return None;
        }
        if self.count == 0 {
            self.first_arrival = Some(now);
        }
        self.arrived[r] = true;
        self.count += 1;
        if self.count == self.size {
            self.arrived.fill(false);
            self.count = 0;
            self.episodes += 1;
            let lag = net.barrier_dur(self.size);
            let first = self.first_arrival.take().unwrap_or(now);
            self.obs.emit(now, || ObsEvent::BarrierWait {
                ranks: self.size,
                skew_us: now.since(first).as_us(),
                lag_us: lag.as_us(),
            });
            Some(now + lag)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xfer_has_latency_floor() {
        let n = NetParams::default();
        assert_eq!(n.xfer_dur(0), SimDur::from_us(100));
        // 1 MiB at 100 Mbps ≈ 83.9 ms + latency.
        let d = n.xfer_dur(1 << 20);
        assert!(
            d > SimDur::from_ms(80) && d < SimDur::from_ms(90),
            "got {d}"
        );
    }

    #[test]
    fn barrier_cost_grows_logarithmically() {
        let n = NetParams::default();
        assert_eq!(n.barrier_dur(1), SimDur::ZERO);
        let d2 = n.barrier_dur(2);
        let d4 = n.barrier_dur(4);
        let d16 = n.barrier_dur(16);
        assert!(d2 < d4 && d4 < d16);
        assert_eq!(d16, d4 * 2, "log2(16)=4 rounds vs log2(4)=2");
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let net = NetParams::default();
        let mut b = Barrier::new(4);
        let t = SimTime::from_secs(1);
        assert_eq!(b.arrive(0, t, &net), None);
        assert_eq!(b.arrive(2, t, &net), None);
        assert_eq!(b.arrive(1, t, &net), None);
        assert_eq!(b.waiting(), 3);
        let rel = b.arrive(3, SimTime::from_secs(5), &net).unwrap();
        assert_eq!(rel, SimTime::from_secs(5) + net.barrier_dur(4));
        assert_eq!(b.episodes, 1);
    }

    #[test]
    fn barrier_resets_between_episodes() {
        let net = NetParams::default();
        let mut b = Barrier::new(2);
        let t = SimTime::from_secs(1);
        assert!(b.arrive(0, t, &net).is_none());
        assert!(b.arrive(1, t, &net).is_some());
        // Fresh episode.
        assert!(b.arrive(1, t, &net).is_none());
        assert!(b.arrive(0, t, &net).is_some());
        assert_eq!(b.episodes, 2);
    }

    #[test]
    fn single_rank_barrier_is_instant() {
        let net = NetParams::default();
        let mut b = Barrier::new(1);
        let t = SimTime::from_secs(3);
        assert_eq!(b.arrive(0, t, &net), Some(t));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    #[cfg(debug_assertions)]
    fn double_arrival_panics_in_debug() {
        let net = NetParams::default();
        let mut b = Barrier::new(3);
        let t = SimTime::ZERO;
        b.arrive(0, t, &net);
        b.arrive(0, t, &net);
    }

    #[test]
    fn reset_abandons_the_episode_without_counting_it() {
        let net = NetParams::default();
        let mut b = Barrier::new(2);
        let t = SimTime::from_secs(1);
        assert!(b.arrive(0, t, &net).is_none());
        assert_eq!(b.reset(), 1);
        assert_eq!(b.waiting(), 0);
        assert_eq!(b.episodes, 0);
        // Both ranks can arrive again in the fresh episode.
        assert!(b.arrive(0, t, &net).is_none());
        assert!(b.arrive(1, t, &net).is_some());
        assert_eq!(b.episodes, 1);
    }

    #[test]
    fn alltoall_scales_with_peers() {
        let n = NetParams::default();
        assert_eq!(n.alltoall_dur(1, 1000), SimDur::ZERO);
        assert!(n.alltoall_dur(4, 1000) < n.alltoall_dur(8, 1000));
    }
}
