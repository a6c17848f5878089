//! The simulation engine: event queue, node lifecycle, fault injection.

use crate::clock::{ClockModel, LocalClock};
use crate::energy::{EnergyMeter, EnergyModel, EnergyUsage};
use crate::ids::{NodeId, TimerId};
use crate::node::{Proto, StateLoss, Timer};
use crate::obs::{self, Event, EventKind, Recorder, SpanId};
use crate::radio::{
    Dst, Frame, LinkModel, Medium, RadioConfig, RadioError, RadioState, RxEval, TxId,
};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Pos, Topology};
use crate::trace::Stats;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Static world parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; everything random derives from it.
    pub seed: u64,
    /// Radio configuration shared by all nodes.
    pub radio: RadioConfig,
    /// Energy model shared by all nodes.
    pub energy: EnergyModel,
    /// One-way latency of the backhaul "wire" between nodes
    /// (models the IP network between border routers and servers).
    pub wire_latency: SimDuration,
    /// Oscillator fault model shared by all nodes (each node draws its
    /// own parameters from it). Ideal by default.
    pub clock: ClockModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xD15C0,
            radio: RadioConfig::default(),
            energy: EnergyModel::default(),
            wire_latency: SimDuration::from_millis(20),
            clock: ClockModel::default(),
        }
    }
}

impl SimConfig {
    /// Sets the master seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use iiot_sim::prelude::*;
    ///
    /// let cfg = SimConfig::default().seed(7).radius(30.0);
    /// let w = World::new(cfg);
    /// assert_eq!(w.now(), SimTime::ZERO);
    /// ```
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the communication range of disk-shaped link models,
    /// keeping the interference range at 1.5x the communication range.
    /// A [`LinkModel::LogDistance`] link has no sharp radius and is
    /// left unchanged; use [`SimConfig::link`] to replace it.
    #[must_use]
    pub fn radius(mut self, range: f64) -> Self {
        match &mut self.radio.link {
            LinkModel::UnitDisk {
                range_m,
                interference_range_m,
            }
            | LinkModel::LossyDisk {
                range_m,
                interference_range_m,
                ..
            } => {
                *range_m = range;
                *interference_range_m = range * 1.5;
            }
            LinkModel::LogDistance { .. } => {}
        }
        self
    }

    /// Replaces the link model.
    #[must_use]
    pub fn link(mut self, link: LinkModel) -> Self {
        self.radio.link = link;
        self
    }

    /// Replaces the whole radio configuration.
    #[must_use]
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Replaces the energy model.
    #[must_use]
    pub fn energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Sets the one-way backhaul latency.
    #[must_use]
    pub fn wire_latency(mut self, latency: SimDuration) -> Self {
        self.wire_latency = latency;
        self
    }

    /// Replaces the oscillator fault model.
    #[must_use]
    pub fn clock(mut self, clock: ClockModel) -> Self {
        self.clock = clock;
        self
    }
}

#[derive(Debug)]
enum Ev {
    Start {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
    },
    /// A transmission ends: the sender's `tx_done`, then the reception
    /// at every candidate this world owns, in candidate order.
    TxEnd {
        node: NodeId,
        tx: TxId,
    },
    /// The receptions of a transmission adopted from another shard, at
    /// the candidates this world owns, in candidate order.
    Rx {
        tx: TxId,
    },
    Wire {
        to: NodeId,
        from: NodeId,
        payload: Vec<u8>,
    },
    Action(usize),
}

/// A cross-shard event captured by the routing hook instead of being
/// queued locally; delivered to the owning shard at the next lookahead
/// barrier (see [`crate::shard`]).
#[derive(Debug)]
pub(crate) enum StagedEv {
    /// A border transmission, staged when its `TxEnd` is queued. At the
    /// barrier its record is echoed to every shard in `mask`; each of
    /// those that owns a candidate queues one [`Ev::Rx`] entry, in this
    /// event's place in staging order, which evaluates its nodes'
    /// receptions against the adopted copy of the record.
    Tx {
        /// When the receptions evaluate (transmission end).
        time: SimTime,
        /// Origin-shard transmission id; each receiving shard rewrites
        /// it to its adopted copy.
        tx: TxId,
        /// The shards the record is echoed to.
        mask: u64,
    },
    /// A backhaul message to a node owned by another shard.
    Wire {
        /// Arrival time (send time + wire latency).
        time: SimTime,
        /// The foreign destination.
        to: NodeId,
        /// The sender.
        from: NodeId,
        /// Message bytes.
        payload: Vec<u8>,
    },
}

/// Per-replica shard routing state, installed by the sharded engine.
/// When present, [`Kernel::push`] diverts events targeting foreign
/// nodes into `out_events` and stages border transmissions, whose
/// record must be echoed to audible neighbour shards.
pub(crate) struct ShardRoute {
    /// `own[i]` — node `i` is owned (dispatched) by this shard.
    pub(crate) own: Vec<bool>,
    /// Per-node bitmask of *other* shards with at least one node within
    /// the medium's maximum audible range (conservative superset).
    pub(crate) echo_mask: Vec<u64>,
    /// Cross-shard events staged during the current window.
    pub(crate) out_events: Vec<StagedEv>,
}

impl ShardRoute {
    /// Routes `ev`: returns it when it stays in this shard (staging a
    /// border transmission's echo on the way), or stages it and returns
    /// `None`.
    fn route(&mut self, time: SimTime, ev: Ev) -> Option<Ev> {
        match ev {
            Ev::TxEnd { node, tx } => {
                let mask = self.echo_mask[node.index()];
                if mask != 0 {
                    self.out_events.push(StagedEv::Tx { time, tx, mask });
                }
                Some(ev)
            }
            Ev::Wire { to, from, payload } if !self.own[to.index()] => {
                self.out_events.push(StagedEv::Wire {
                    time,
                    to,
                    from,
                    payload,
                });
                None
            }
            other => Some(other),
        }
    }
}

struct QEntry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Everything the engine owns besides the protocol objects. Split out so
/// a node's protocol can be borrowed mutably at the same time as the
/// kernel (via [`Ctx`]).
// `repr(C)` pins the field order so `obs_on` shares a cache line with
// `now` and `seq`, which every dispatched event touches anyway: the
// per-event "is a recorder installed?" test must never miss in L1.
#[repr(C)]
pub(crate) struct Kernel {
    now: SimTime,
    seq: u64,
    /// Mirror of `recorder.is_some()`, kept hot; the recorder box
    /// itself lives with the cold fields below.
    obs_on: bool,
    queue: BinaryHeap<Reverse<QEntry>>,
    medium: Medium,
    energy_model: EnergyModel,
    meters: Vec<EnergyMeter>,
    rngs: Vec<SmallRng>,
    stats: Stats,
    timers: TimerSlots,
    wire_latency: SimDuration,
    seed: u64,
    clock_model: ClockModel,
    /// Per-node oscillators. Clock state survives crashes: hardware
    /// oscillators keep ticking while the MCU reboots.
    clocks: Vec<LocalClock>,
    /// Structured-event sink; `None` (the default) makes every
    /// emission a single branch on `obs_on`.
    recorder: Option<Box<dyn Recorder>>,
    /// Logical events dispatched since construction (the simulator's
    /// natural unit of work, reported by perf harnesses): one per queue
    /// entry, plus one per reception a transmission's entry evaluates.
    dispatched: u64,
    /// Shard routing table, installed only by the sharded engine.
    /// `None` in every standalone world: the hot path pays one branch.
    shard: Option<Box<ShardRoute>>,
}

impl Kernel {
    fn push(&mut self, time: SimTime, ev: Ev) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let ev = if let Some(route) = self.shard.as_deref_mut() {
            match route.route(time, ev) {
                Some(ev) => ev,
                None => return, // staged for a foreign shard
            }
        } else {
            ev
        };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QEntry { time, seq, ev }));
    }

    /// Whether this world dispatches `node`'s protocol: always, unless
    /// it is a shard replica and another shard owns the node.
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        self.shard.as_deref().is_none_or(|r| r.own[node.index()])
    }

    fn sync_meter(&mut self, node: NodeId) {
        let state = self.medium.state(node);
        self.meters[node.index()].transition(self.now, state);
    }

    /// Hot-path wrapper: a pointer test when no recorder is installed,
    /// with all event construction kept out of line so instrumented
    /// loops stay tight in the common (disabled) case.
    #[inline]
    fn emit(&mut self, node: NodeId, span: SpanId, kind: EventKind) {
        if self.obs_on {
            self.emit_slow(node, span, kind);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_slow(&mut self, node: NodeId, span: SpanId, kind: EventKind) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(&Event {
                t: self.now,
                node,
                span,
                kind,
            });
        }
    }
}

/// Generation-checked timer slots. A [`TimerId`] packs a slot index (low
/// 32 bits) and that slot's generation (high 32 bits). Firing or
/// cancelling a timer bumps its slot's generation and frees the slot,
/// so the id of a timer that fired, is firing right now or was
/// cancelled never matches again, and no state outlives its timer.
#[derive(Default)]
struct TimerSlots {
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlots {
    fn arm(&mut self) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.generations.push(0);
            (self.generations.len() - 1) as u32
        });
        TimerId((u64::from(self.generations[slot as usize]) << 32) | u64::from(slot))
    }

    /// Frees `id`'s slot if `id` is still armed; returns whether it was.
    fn disarm(&mut self, id: TimerId) -> bool {
        let slot = (id.0 & 0xFFFF_FFFF) as usize;
        match self.generations.get_mut(slot) {
            Some(generation) if *generation == (id.0 >> 32) as u32 => {
                *generation = generation.wrapping_add(1);
                self.free.push(slot as u32);
                true
            }
            _ => false,
        }
    }

    /// Timers armed and neither fired nor cancelled yet.
    #[cfg(test)]
    fn armed(&self) -> usize {
        self.generations.len() - self.free.len()
    }
}

/// The world: a set of nodes with protocol stacks, a shared radio
/// medium, an event queue and fault-injection hooks.
///
/// # Examples
///
/// ```
/// use iiot_sim::prelude::*;
///
/// let mut world = World::new(SimConfig::default());
/// let a = world.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
/// let b = world.add_node(Pos::new(10.0, 0.0), Box::new(Idle));
/// world.run_for(SimDuration::from_secs(1));
/// assert_eq!(world.now(), SimTime::from_secs(1));
/// assert_ne!(a, b);
/// ```
pub struct World {
    kernel: Kernel,
    protos: Vec<Box<dyn Proto>>,
    alive: Vec<bool>,
    actions: Vec<DeferredAction>,
    state_loss: StateLoss,
}

/// A deferred world mutation scheduled from inside the event loop.
type DeferredAction = Option<Box<dyn FnOnce(&mut World) + Send>>;

impl World {
    /// Creates an empty world.
    pub fn new(config: SimConfig) -> Self {
        // Under `--trace` (global capture enabled + an active worker
        // scope on this thread) new worlds record into the global sink;
        // otherwise emission stays disabled.
        let recorder = obs::capture_recorder(config.seed);
        Self::with_recorder(config, recorder)
    }

    /// Creates an empty world that does *not* register with the global
    /// trace-capture sink. Shard replicas use this: a sharded `Sim` is
    /// one logical world and must consume exactly one capture slot,
    /// which the engine claims itself.
    pub(crate) fn new_uncaptured(config: SimConfig) -> Self {
        Self::with_recorder(config, None)
    }

    fn with_recorder(config: SimConfig, recorder: Option<Box<dyn Recorder>>) -> Self {
        let mut w = World {
            kernel: Kernel {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                seq: 0,
                medium: Medium::new(config.radio),
                energy_model: config.energy,
                meters: Vec::new(),
                rngs: Vec::new(),
                stats: Stats::new(),
                timers: TimerSlots::default(),
                wire_latency: config.wire_latency,
                seed: config.seed,
                clock_model: config.clock,
                clocks: Vec::new(),
                recorder,
                obs_on: false, // synced below from `recorder`
                dispatched: 0,
                shard: None,
            },
            protos: Vec::new(),
            alive: Vec::new(),
            actions: Vec::new(),
            state_loss: StateLoss::default(),
        };
        w.kernel.obs_on = w.kernel.recorder.is_some();
        w
    }

    /// Adds a node at `pos` running `proto`. Its [`Proto::start`] runs at
    /// the current simulation time, before any later event.
    pub fn add_node(&mut self, pos: Pos, proto: Box<dyn Proto>) -> NodeId {
        let id = self.add_node_silent(pos, proto);
        let now = self.kernel.now;
        self.kernel.push(now, Ev::Start { node: id });
        id
    }

    /// Adds a node without scheduling its [`Proto::start`]. Shard
    /// replicas register *foreign* nodes this way: their position,
    /// radio state, RNG and clock must exist (candidate enumeration
    /// and CCA read them) but their protocol never runs here — the
    /// owning shard dispatches it. Keeping construction otherwise
    /// identical to [`World::add_node`] makes per-node seeds and clock
    /// draws byte-identical across replicas by construction.
    pub(crate) fn add_node_silent(&mut self, pos: Pos, proto: Box<dyn Proto>) -> NodeId {
        let id = self.kernel.medium.add_node(pos);
        debug_assert_eq!(id.index(), self.protos.len());
        self.protos.push(proto);
        self.alive.push(true);
        let mut meter = EnergyMeter::new();
        meter.transition(self.kernel.now, RadioState::Off);
        self.kernel.meters.push(meter);
        let node_seed = self
            .kernel
            .seed
            .wrapping_add((id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.kernel.rngs.push(SmallRng::seed_from_u64(node_seed));
        // The oscillator draws from its own seed stream so enabling
        // drift never perturbs protocol RNG sequences (and an ideal
        // model reproduces pre-clock-model runs bit for bit).
        let clock_seed = crate::seed::derive(
            crate::seed::derive_labeled(self.kernel.seed, "clock"),
            id.0 as u64,
        );
        let born_at = self.kernel.now;
        self.kernel.clocks.push(LocalClock::new(
            &self.kernel.clock_model,
            clock_seed,
            born_at,
        ));
        id
    }

    /// Adds one node per position in `topo`, all running protocols
    /// produced by `make`. Returns the ids in order.
    pub fn add_nodes<F>(&mut self, topo: &Topology, mut make: F) -> Vec<NodeId>
    where
        F: FnMut(usize) -> Box<dyn Proto>,
    {
        (0..topo.len())
            .map(|i| self.add_node(topo.pos(i), make(i)))
            .collect()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.protos.len()
    }

    /// Total events dispatched so far — the simulator's natural unit of
    /// work. Deterministic per seed and workload, independent of wall
    /// clock, which makes it the right quantity for perf *gates* (the
    /// count must not drift) as opposed to perf *tracking* (timings).
    ///
    /// It counts logical events, not queue entries: a transmission end
    /// is one queue entry that also evaluates every candidate reception,
    /// and each of those receptions counts as one event of its own.
    pub fn events_dispatched(&self) -> u64 {
        self.kernel.dispatched
    }

    /// Enables or disables the radio medium's spatial candidate index
    /// (on by default when the link model has a finite range).
    ///
    /// Both settings produce byte-identical simulations; the switch
    /// exists so benchmarks can measure the exhaustive O(nodes) scan
    /// against the O(neighbours) grid on the same workload.
    pub fn set_spatial_index(&mut self, on: bool) {
        self.kernel.medium.set_spatial_index(on);
    }

    /// Whether the spatial candidate index is currently in use.
    pub fn spatial_index_active(&self) -> bool {
        self.kernel.medium.spatial_index_active()
    }

    /// Shared medium (read access: stats, radio states, positions).
    pub fn medium(&self) -> &Medium {
        &self.kernel.medium
    }

    /// Mutable medium access for link fault injection and partitions.
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.kernel.medium
    }

    /// Collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.kernel.stats
    }

    /// Mutable statistics (for experiment bookkeeping outside protocols).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.kernel.stats
    }

    /// Installs `recorder` as the structured-event sink. Replaces any
    /// previous recorder (the old one is dropped).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.kernel.recorder = Some(recorder);
        self.kernel.obs_on = true;
    }

    /// Removes and returns the installed recorder, disabling emission.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.kernel.obs_on = false;
        self.kernel.recorder.take()
    }

    /// Whether a recorder is installed.
    pub fn has_recorder(&self) -> bool {
        self.kernel.recorder.is_some()
    }

    /// The installed recorder downcast to `T`, if its type matches.
    pub fn recorder_as<T: Recorder>(&self) -> Option<&T> {
        self.kernel
            .recorder
            .as_deref()
            .and_then(|r| r.as_any().downcast_ref::<T>())
    }

    /// Mutable access to the installed recorder downcast to `T`.
    pub fn recorder_as_mut<T: Recorder>(&mut self) -> Option<&mut T> {
        self.kernel
            .recorder
            .as_deref_mut()
            .and_then(|r| r.as_any_mut().downcast_mut::<T>())
    }

    /// Energy usage of `node` as of the current time.
    pub fn energy(&self, node: NodeId) -> EnergyUsage {
        self.kernel.meters[node.index()].snapshot(self.kernel.now)
    }

    /// The world energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.kernel.energy_model
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Immutable access to a node's protocol, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol of `node` is not a `T`.
    pub fn proto<T: Proto>(&self, node: NodeId) -> &T {
        self.protos[node.index()]
            .as_any()
            .downcast_ref::<T>()
            .expect("protocol type mismatch")
    }

    /// Mutable access to a node's protocol, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol of `node` is not a `T`.
    pub fn proto_mut<T: Proto>(&mut self, node: NodeId) -> &mut T {
        self.protos[node.index()]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("protocol type mismatch")
    }

    /// The local (drifting) clock reading of `node` at the current
    /// simulation time — the oracle view of what [`Ctx::local_time`]
    /// would return, for measuring synchronization error from outside.
    pub fn local_time_of(&mut self, node: NodeId) -> SimTime {
        let now = self.kernel.now;
        self.kernel.clocks[node.index()].read(now)
    }

    /// Runs a closure with a [`Ctx`] for `node`, e.g. to inject an
    /// application-level request from a test.
    pub fn with_ctx<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Proto, &mut Ctx<'_>) -> R,
    ) -> R {
        let kernel = &mut self.kernel;
        let proto = &mut self.protos[node.index()];
        let mut ctx = Ctx { kernel, node };
        f(proto.as_mut(), &mut ctx)
    }

    /// Schedules `f` to run on the world at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        let idx = self.actions.len();
        self.actions.push(Some(Box::new(f)));
        self.kernel.push(at, Ev::Action(idx));
    }

    /// What crashed nodes retain: RAM loss only (the default) or a full
    /// wipe including "flash". See [`StateLoss`].
    pub fn set_state_loss(&mut self, loss: StateLoss) {
        self.state_loss = loss;
    }

    /// The current crash [`StateLoss`] policy.
    pub fn state_loss(&self) -> StateLoss {
        self.state_loss
    }

    /// Kills `node` now: radio off, pending behaviour stops, volatile
    /// protocol state is cleared via [`Proto::crashed`] (or, under
    /// [`StateLoss::Full`], everything via [`Proto::wiped`]).
    pub fn kill(&mut self, node: NodeId) {
        if !self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = false;
        self.kernel.emit(
            node,
            SpanId::NONE,
            EventKind::Fault {
                kind: if self.state_loss == StateLoss::Full {
                    "crash_wipe"
                } else {
                    "crash"
                },
                peer: None,
            },
        );
        self.kernel.medium.set_alive(node, false);
        self.kernel.sync_meter(node);
        match self.state_loss {
            StateLoss::Ram => self.protos[node.index()].crashed(),
            StateLoss::Full => self.protos[node.index()].wiped(),
        }
    }

    /// Revives a dead node: it boots again through [`Proto::start`].
    pub fn revive(&mut self, node: NodeId) {
        if self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = true;
        self.kernel.emit(
            node,
            SpanId::NONE,
            EventKind::Fault {
                kind: "recover",
                peer: None,
            },
        );
        self.kernel.medium.set_alive(node, true);
        self.kernel.sync_meter(node);
        let now = self.kernel.now;
        self.kernel.push(now, Ev::Start { node });
    }

    /// Schedules a kill at `at`.
    pub fn kill_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, move |w| w.kill(node));
    }

    /// Schedules a revive at `at`.
    pub fn revive_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, move |w| w.revive(node));
    }

    /// Administratively severs the link between `a` and `b` (both
    /// ways), emitting a `link_down` fault event. Prefer this over
    /// [`Medium::block_link`] via [`World::medium_mut`] so the fault
    /// shows up in traces.
    pub fn block_link(&mut self, a: NodeId, b: NodeId) {
        self.kernel.emit(
            a,
            SpanId::NONE,
            EventKind::Fault {
                kind: "link_down",
                peer: Some(b),
            },
        );
        self.kernel.medium.block_link(a, b);
    }

    /// Restores a previously severed link, emitting a `link_up` fault
    /// event.
    pub fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        self.kernel.emit(
            a,
            SpanId::NONE,
            EventKind::Fault {
                kind: "link_up",
                peer: Some(b),
            },
        );
        self.kernel.medium.unblock_link(a, b);
    }

    /// Enables or disables the network partition (see
    /// [`Medium::set_partitioned`]), emitting a `partition`/`heal`
    /// fault event. The event is attributed to node 0 because the
    /// partition is a global condition.
    pub fn set_partitioned(&mut self, on: bool) {
        self.kernel.emit(
            NodeId(0),
            SpanId::NONE,
            EventKind::Fault {
                kind: if on { "partition" } else { "heal" },
                peer: None,
            },
        );
        self.kernel.medium.set_partitioned(on);
    }

    /// Runs the simulation until `deadline` (inclusive of events at the
    /// deadline); afterwards `now() == deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(front)) = self.kernel.queue.peek() {
            if front.time > deadline {
                break;
            }
            let Reverse(entry) = self.kernel.queue.pop().expect("peeked");
            debug_assert!(entry.time >= self.kernel.now);
            self.kernel.now = entry.time;
            self.dispatch(entry.ev);
        }
        self.kernel.now = deadline;
    }

    /// Runs the simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.kernel.now + d;
        self.run_until(deadline);
    }

    /// Runs until the event queue drains or `deadline` passes, whichever
    /// comes first. Returns `true` if the queue drained.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> bool {
        loop {
            let Some(Reverse(front)) = self.kernel.queue.peek() else {
                return true;
            };
            if front.time > deadline {
                self.kernel.now = deadline;
                return false;
            }
            let Reverse(entry) = self.kernel.queue.pop().expect("peeked");
            self.kernel.now = entry.time;
            self.dispatch(entry.ev);
        }
    }

    // ---- shard-engine surface (crate-private) -------------------------
    //
    // The sharded engine in `crate::shard` drives replicas through these
    // hooks. None of them is reachable from a standalone `World`.

    /// Installs (or removes) the shard routing table.
    pub(crate) fn set_shard_route(&mut self, route: Option<Box<ShardRoute>>) {
        self.kernel.shard = route;
    }

    /// Timestamp of the earliest queued event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.kernel.queue.peek().map(|Reverse(e)| e.time)
    }

    /// Runs every event strictly *before* `bound`, then advances the
    /// clock to `bound`. The exclusive counterpart of
    /// [`World::run_until`], used for lookahead windows: events at the
    /// window edge belong to the next window, after the barrier has
    /// delivered any cross-shard events carrying that same timestamp.
    pub(crate) fn run_until_before(&mut self, bound: SimTime) {
        while let Some(Reverse(front)) = self.kernel.queue.peek() {
            if front.time >= bound {
                break;
            }
            let Reverse(entry) = self.kernel.queue.pop().expect("peeked");
            debug_assert!(entry.time >= self.kernel.now);
            self.kernel.now = entry.time;
            self.dispatch(entry.ev);
        }
        self.kernel.now = bound;
    }

    /// Drains the events staged by the routing hook during the last
    /// window, in staging order.
    pub(crate) fn take_staged(&mut self) -> Vec<StagedEv> {
        let route = self
            .kernel
            .shard
            .as_deref_mut()
            .expect("take_staged on unsharded world");
        std::mem::take(&mut route.out_events)
    }

    /// Queues the receptions of a transmission adopted from another
    /// shard, to evaluate at `time`. `tx` must already be this
    /// replica's adopted record id.
    pub(crate) fn inject_rx(&mut self, time: SimTime, tx: TxId) {
        self.kernel.push(time, Ev::Rx { tx });
    }

    /// Queues a backhaul message delivered from another shard.
    pub(crate) fn inject_wire(
        &mut self,
        time: SimTime,
        to: NodeId,
        from: NodeId,
        payload: Vec<u8>,
    ) {
        self.kernel.push(time, Ev::Wire { to, from, payload });
    }

    /// Mirrors a foreign node's liveness without side effects (no fault
    /// event, no meter transition, no protocol callback — all of that
    /// happens in the owning shard).
    pub(crate) fn set_foreign_alive(&mut self, node: NodeId, alive: bool) {
        self.alive[node.index()] = alive;
        self.kernel.medium.set_alive(node, alive);
    }

    /// Applies a foreign node's radio-state snapshot received at a
    /// shard barrier (see [`crate::radio::NodeStateSnap`]).
    pub(crate) fn apply_foreign_snap(&mut self, snap: &crate::radio::NodeStateSnap) {
        self.alive[snap.node as usize] = snap.alive;
        self.kernel.medium.apply_snap(snap);
    }

    // -------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        // An `Rx` entry counts only the receptions it evaluates.
        if !matches!(ev, Ev::Rx { .. }) {
            self.kernel.dispatched += 1;
        }
        match ev {
            Ev::Action(idx) => {
                if let Some(f) = self.actions[idx].take() {
                    f(self);
                }
            }
            Ev::Start { node } => {
                if self.alive[node.index()] {
                    self.call(node, |p, ctx| p.start(ctx));
                }
            }
            Ev::Timer { node, id, tag } => {
                // A cancelled timer's slot has moved on to a new
                // generation; a live one is freed before it runs.
                if self.kernel.timers.disarm(id) && self.alive[node.index()] {
                    self.call(node, |p, ctx| p.timer(ctx, Timer { id, tag }));
                }
            }
            Ev::TxEnd { node, tx } => {
                let expired_before = self.kernel.medium.stats().lost_expired;
                let outcome = self.kernel.medium.end_tx(tx, self.kernel.now);
                if self.kernel.medium.stats().lost_expired != expired_before {
                    // The record was pruned before its own TxEnd — the
                    // global `lost_expired` bump alone cannot say *whose*
                    // transmission aged out.
                    self.kernel.stats.inc_node(node, "expired_txid", 1.0);
                }
                self.kernel.sync_meter(node);
                self.kernel.emit(
                    node,
                    SpanId::NONE,
                    EventKind::TxEnd {
                        receivers: outcome.oracle_receivers as u32,
                    },
                );
                if self.alive[node.index()] {
                    self.call(node, |p, ctx| p.tx_done(ctx, outcome));
                }
                self.receive(tx);
            }
            Ev::Rx { tx } => self.receive(tx),
            Ev::Wire { to, from, payload } => {
                if self.alive[to.index()] {
                    self.call(to, |p, ctx| p.wire(ctx, from, &payload));
                }
            }
        }
    }

    /// Evaluates `tx`'s reception at every candidate this world owns, in
    /// candidate order, each counting as one dispatched event, then
    /// releases the record. Whatever a callback queues lands behind the
    /// whole loop, exactly as if each reception were a queue entry of
    /// its own with consecutive sequence numbers.
    fn receive(&mut self, tx: TxId) {
        let mut i = 0;
        while let Some(node) = self.kernel.medium.candidate(tx, i) {
            if self.kernel.owns(node) {
                self.kernel.dispatched += 1;
                self.rx_end(tx, i, node);
            }
            i += 1;
        }
        self.kernel.medium.release(tx);
    }

    /// One reception: `node` is `tx`'s `i`-th candidate.
    fn rx_end(&mut self, tx: TxId, i: usize, node: NodeId) {
        match self.kernel.medium.eval_rx(tx, i) {
            RxEval::Deliver(frame, info) => {
                self.kernel.emit(
                    node,
                    SpanId::NONE,
                    EventKind::RxDeliver {
                        src: frame.src,
                        port: frame.port,
                    },
                );
                if self.alive[node.index()] {
                    self.call(node, |p, ctx| p.frame(ctx, &frame, info));
                }
                // The delivered clone is dead now; hand its payload
                // buffer back to the medium's pool.
                self.kernel.medium.recycle_payload(frame.payload);
            }
            RxEval::Dropped(reason, src) => {
                self.kernel.emit(
                    node,
                    SpanId::NONE,
                    EventKind::RxDrop {
                        cause: reason.name(),
                        src: Some(src),
                    },
                );
            }
        }
    }

    fn call(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Proto, &mut Ctx<'_>)) {
        let kernel = &mut self.kernel;
        let proto = &mut self.protos[node.index()];
        let mut ctx = Ctx { kernel, node };
        f(proto.as_mut(), &mut ctx);
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.kernel.now)
            .field("nodes", &self.protos.len())
            .field("queued_events", &self.kernel.queue.len())
            .finish()
    }
}

/// The per-callback handle through which protocols act on the world.
///
/// A `Ctx` is only valid during one callback; all its operations are
/// attributed to the node the callback was delivered to.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The node this callback belongs to.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// This node's position.
    pub fn pos(&self) -> Pos {
        self.kernel.medium.pos(self.node)
    }

    /// Total number of nodes in the world (deployment-time knowledge).
    pub fn node_count(&self) -> usize {
        self.kernel.medium.node_count()
    }

    /// The shared radio configuration (bitrates, frame limits, ranges).
    pub fn radio(&self) -> &RadioConfig {
        self.kernel.medium.config()
    }

    /// This node's deterministic random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.kernel.rngs[self.node.index()]
    }

    /// This node's local clock reading: what the node's own (possibly
    /// drifting) oscillator shows right now. Under the default ideal
    /// [`crate::clock::ClockModel`] this equals [`Ctx::now`] exactly.
    ///
    /// Protocols that claim realistic timing must schedule off this
    /// clock (via [`Ctx::set_timer_local`]), never off [`Ctx::now`] —
    /// real motes have no access to perfect global time.
    pub fn local_time(&mut self) -> SimTime {
        let now = self.kernel.now;
        self.kernel.clocks[self.node.index()].read(now)
    }

    /// Arms a one-shot timer that fires after `delay` *as measured by
    /// this node's local clock*, like a hardware timer counting local
    /// oscillator ticks. Under an ideal clock model this is exactly
    /// [`Ctx::set_timer`].
    pub fn set_timer_local(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let now = self.kernel.now;
        let world_delay = self.kernel.clocks[self.node.index()].world_delay(now, delay);
        self.set_timer(world_delay, tag)
    }

    /// Arms a one-shot timer firing after `delay`, carrying `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.set_timer_at(self.kernel.now + delay, tag)
    }

    /// Arms a one-shot timer firing at absolute time `at`, carrying `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerId {
        assert!(at >= self.kernel.now, "timer in the past");
        let id = self.kernel.timers.arm();
        self.kernel.push(
            at,
            Ev::Timer {
                node: self.node,
                id,
                tag,
            },
        );
        id
    }

    /// Cancels a pending timer. Cancelling a timer that already fired,
    /// the timer now firing, or [`TimerId::NONE`] is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.timers.disarm(id);
    }

    /// Powers the radio on (listening).
    ///
    /// # Errors
    ///
    /// Fails only if the node is dead (cannot happen from a live callback).
    pub fn radio_on(&mut self) -> Result<(), RadioError> {
        self.kernel.medium.radio_on(self.node, self.kernel.now)?;
        self.kernel.sync_meter(self.node);
        Ok(())
    }

    /// Powers the radio off (sleep).
    ///
    /// # Errors
    ///
    /// Fails with [`RadioError::Busy`] while transmitting.
    pub fn radio_off(&mut self) -> Result<(), RadioError> {
        self.kernel.medium.radio_off(self.node)?;
        self.kernel.sync_meter(self.node);
        Ok(())
    }

    /// Current radio state.
    pub fn radio_state(&self) -> RadioState {
        self.kernel.medium.state(self.node)
    }

    /// Retunes the radio to `channel`.
    ///
    /// # Errors
    ///
    /// Fails with [`RadioError::Busy`] while transmitting.
    pub fn set_channel(&mut self, channel: u8) -> Result<(), RadioError> {
        self.kernel
            .medium
            .set_channel(self.node, channel, self.kernel.now)
    }

    /// The radio's current channel.
    pub fn channel(&self) -> u8 {
        self.kernel.medium.channel(self.node)
    }

    /// Enables or disables promiscuous reception (overhearing).
    pub fn set_promiscuous(&mut self, on: bool) {
        self.kernel.medium.set_promiscuous(self.node, on);
    }

    /// Clear channel assessment: `true` if an audible transmission is in
    /// the air right now.
    pub fn cca_busy(&self) -> bool {
        self.kernel.medium.cca_busy(self.node, self.kernel.now)
    }

    /// Starts transmitting `payload` to `dst` on the demux `port`.
    /// Completion is signalled via [`Proto::tx_done`].
    ///
    /// # Errors
    ///
    /// Returns [`RadioError::Off`] if the radio is off, [`RadioError::Busy`]
    /// if a transmission is in progress, or [`RadioError::FrameTooLarge`].
    pub fn transmit(&mut self, dst: Dst, port: u8, payload: Vec<u8>) -> Result<(), RadioError> {
        let bytes = payload.len() as u32;
        let frame = Frame::new(self.node, dst, port, payload);
        let node = self.node;
        // Borrow dance: rng and medium are both in the kernel.
        let (tx, end) = {
            let Kernel {
                medium, rngs, now, ..
            } = &mut *self.kernel;
            medium.start_tx(frame, *now, &mut rngs[node.index()])?
        };
        self.kernel.sync_meter(node);
        self.kernel.emit(
            node,
            SpanId::NONE,
            EventKind::TxStart {
                dst: match dst {
                    Dst::Unicast(n) => Some(n),
                    Dst::Broadcast => None,
                },
                port,
                bytes,
            },
        );
        // One queue entry: its dispatch evaluates every reception too.
        self.kernel.push(end, Ev::TxEnd { node, tx });
        Ok(())
    }

    /// Sends `payload` over the backhaul wire to `to`, arriving after the
    /// configured wire latency. Only meaningful between nodes that are
    /// conceptually wired (border routers, servers); the medium does not
    /// check this.
    pub fn wire_send(&mut self, to: NodeId, payload: Vec<u8>) {
        let at = self.kernel.now + self.kernel.wire_latency;
        let from = self.node;
        self.kernel.push(at, Ev::Wire { to, from, payload });
    }

    /// Adds `v` to the global counter `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        self.kernel.stats.inc(name, v);
    }

    /// Adds `v` to this node's counter `name`.
    pub fn count_node(&mut self, name: &str, v: f64) {
        self.kernel.stats.inc_node(self.node, name, v);
    }

    /// Appends a raw sample to the series `name`.
    pub fn record(&mut self, name: &str, v: f64) {
        self.kernel.stats.record(name, v);
    }

    /// Records `v` into the bounded histogram `name` (see
    /// [`Stats::observe`]).
    #[inline]
    pub fn observe(&mut self, name: &str, v: f64) {
        self.kernel.stats.observe(name, v);
    }

    /// Read access to all statistics.
    pub fn stats(&self) -> &Stats {
        &self.kernel.stats
    }

    /// Whether a structured-event recorder is installed. Protocols may
    /// use this to skip *computing* expensive event payloads; plain
    /// [`Ctx::emit`] calls are already a single branch when disabled.
    #[inline]
    pub fn obs_enabled(&self) -> bool {
        self.kernel.obs_on
    }

    /// Emits a structured event attributed to this node, outside any
    /// span. A no-op unless a recorder is installed.
    #[inline]
    pub fn emit(&mut self, kind: EventKind) {
        self.kernel.emit(self.node, SpanId::NONE, kind);
    }

    /// Emits a structured event stitched into `span` (see [`SpanId`]).
    #[inline]
    pub fn emit_span(&mut self, span: SpanId, kind: EventKind) {
        self.kernel.emit(self.node, span, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Idle;
    use crate::radio::RxInfo;

    /// Ping-pong: node A unicasts to B, B replies, A records latency.
    struct Ping {
        peer: NodeId,
        initiator: bool,
        rtts: Vec<f64>,
        sent_at: SimTime,
    }

    impl Ping {
        fn new(peer: NodeId, initiator: bool) -> Self {
            Ping {
                peer,
                initiator,
                rtts: Vec::new(),
                sent_at: SimTime::ZERO,
            }
        }
    }

    impl Proto for Ping {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
            if self.initiator {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            self.sent_at = ctx.now();
            ctx.transmit(Dst::Unicast(self.peer), 1, vec![b'p'])
                .expect("tx");
        }
        fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
            if frame.payload == [b'p'] {
                ctx.transmit(Dst::Unicast(frame.src), 1, vec![b'r'])
                    .expect("tx reply");
            } else {
                let rtt = ctx.now().duration_since(self.sent_at).as_secs_f64();
                self.rtts.push(rtt);
            }
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Ping::new(NodeId(1), true)));
        let b = w.add_node(Pos::new(10.0, 0.0), Box::new(Ping::new(NodeId(0), false)));
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
        w.run_for(SimDuration::from_secs(1));
        let ping = w.proto::<Ping>(a);
        assert_eq!(ping.rtts.len(), 1);
        // Two 18-byte frames at 250kb/s: 2 * 576 us = 1.152 ms.
        assert!(
            (ping.rtts[0] - 0.001152).abs() < 1e-6,
            "rtt {}",
            ping.rtts[0]
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let cfg = SimConfig::default().seed(seed);
            let mut w = World::new(cfg);
            let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Ping::new(NodeId(1), true)));
            w.add_node(Pos::new(10.0, 0.0), Box::new(Ping::new(NodeId(0), false)));
            w.run_for(SimDuration::from_secs(1));
            (w.medium().stats(), w.proto::<Ping>(a).rtts.clone())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn absent_recorder_is_a_no_op() {
        // The same simulation with and without a recorder: identical
        // protocol outcomes and identical Stats — emission must never
        // leak into counters or perturb the run.
        let run = |record: bool| {
            let mut w = World::new(SimConfig::default().seed(3));
            let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Ping::new(NodeId(1), true)));
            w.add_node(Pos::new(10.0, 0.0), Box::new(Ping::new(NodeId(0), false)));
            if record {
                w.set_recorder(Box::new(obs::RingRecorder::new(256)));
            }
            w.kill_at(SimTime::from_millis(500), NodeId(1));
            w.run_for(SimDuration::from_secs(1));
            let events = w
                .take_recorder()
                .map(|r| {
                    r.as_any()
                        .downcast_ref::<obs::RingRecorder>()
                        .expect("ring")
                        .len()
                })
                .unwrap_or(0);
            let mut counters: Vec<(String, f64)> = w
                .stats()
                .counter_names()
                .map(|k| (k.to_string(), w.stats().get(k)))
                .collect();
            counters.sort_by(|x, y| x.0.cmp(&y.0));
            (w.proto::<Ping>(a).rtts.clone(), counters, events)
        };
        let (rtts_off, counters_off, events_off) = run(false);
        let (rtts_on, counters_on, events_on) = run(true);
        assert_eq!(events_off, 0, "no recorder, no events");
        assert!(events_on > 0, "recorder sees tx/rx/fault events");
        assert_eq!(rtts_off, rtts_on, "recording must not change the run");
        assert_eq!(counters_off, counters_on, "counters untouched by emission");
    }

    #[test]
    fn kill_stops_timers_and_revive_restarts() {
        struct Beacons {
            fired: u32,
        }
        impl Proto for Beacons {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                self.fired += 1;
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn crashed(&mut self) {
                self.fired = 0; // volatile state lost
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(Beacons { fired: 0 }));
        w.kill_at(SimTime::from_millis(550), n);
        w.revive_at(SimTime::from_secs(2), n);
        w.run_until(SimTime::from_millis(1900));
        // 5 fires before the kill, none after, reset on crash.
        assert_eq!(w.proto::<Beacons>(n).fired, 0);
        assert!(!w.is_alive(n));
        w.run_until(SimTime::from_secs(3));
        assert!(w.is_alive(n));
        let fired = w.proto::<Beacons>(n).fired;
        assert!((9..=11).contains(&fired), "fired {fired} after revive");
    }

    #[test]
    fn state_loss_knob_selects_crashed_or_wiped() {
        /// Keeps a volatile counter and a "flash" checkpoint of it.
        struct Flashy {
            ram: u32,
            flash: u32,
        }
        impl Proto for Flashy {
            fn start(&mut self, _ctx: &mut Ctx<'_>) {
                self.ram = self.flash; // resume from the checkpoint
                self.ram += 1;
                self.flash = self.ram;
            }
            fn crashed(&mut self) {
                self.ram = 0; // RAM lost, flash kept
            }
            fn wiped(&mut self) {
                self.ram = 0;
                self.flash = 0; // flash lost too
            }
        }
        let mk = |loss: StateLoss| {
            let mut w = World::new(SimConfig::default());
            let n = w.add_node(Pos::new(0.0, 0.0), Box::new(Flashy { ram: 0, flash: 0 }));
            w.set_state_loss(loss);
            assert_eq!(w.state_loss(), loss);
            w.kill_at(SimTime::from_millis(100), n);
            w.revive_at(SimTime::from_millis(200), n);
            w.run_for(SimDuration::from_secs(1));
            w.proto::<Flashy>(n).flash
        };
        // Default RAM-only loss: the flash checkpoint survives the
        // reboot, so the second boot increments it to 2.
        assert_eq!(mk(StateLoss::Ram), 2);
        // Full wipe: the second boot starts from zero again.
        assert_eq!(mk(StateLoss::Full), 1);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct C {
            fired: bool,
        }
        impl Proto for C {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                let t = ctx.set_timer(SimDuration::from_millis(10), 0);
                ctx.cancel_timer(t);
                ctx.cancel_timer(TimerId::NONE); // no-op
            }
            fn timer(&mut self, _ctx: &mut Ctx<'_>, _t: Timer) {
                self.fired = true;
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(C { fired: false }));
        w.run_for(SimDuration::from_secs(1));
        assert!(!w.proto::<C>(n).fired);
    }

    #[test]
    fn transmission_end_dispatch_order() {
        // Node 0 broadcasts to three listeners (ids 1..=3); node 4 is out
        // of range. Every callback logs a code into the "order" series:
        // 0 = tx_done at the sender, r = reception at node r, 100 + r =
        // a zero-delay timer armed by node r, 200 = the ACK node 2 sends
        // the moment it receives, arriving back at the sender.
        struct Order;
        impl Proto for Order {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("radio");
                if ctx.id() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(1), 0);
                }
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, t: Timer) {
                if t.tag == 0 {
                    ctx.transmit(Dst::Broadcast, 1, vec![7; 4]).expect("tx");
                } else {
                    ctx.record("order", 100.0 + ctx.id().0 as f64);
                }
            }
            fn tx_done(&mut self, ctx: &mut Ctx<'_>, _o: crate::radio::TxOutcome) {
                if ctx.id() == NodeId(0) {
                    ctx.record("order", 0.0);
                }
            }
            fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
                if frame.port == 2 {
                    ctx.record("order", 200.0);
                    return;
                }
                ctx.record("order", ctx.id().0 as f64);
                match ctx.id().0 {
                    1 => {
                        ctx.set_timer(SimDuration::ZERO, 1);
                    }
                    2 => ctx
                        .transmit(Dst::Unicast(frame.src), 2, vec![0; 3])
                        .expect("ack"),
                    _ => {}
                }
            }
        }
        let mut w = World::new(SimConfig::default());
        for x in [0.0, 5.0, 10.0, 15.0, 300.0] {
            w.add_node(Pos::new(x, 0.0), Box::new(Order));
        }
        // 4-byte payload: (17 + 4) * 8 bits at 250 kbit/s = 672 us.
        let end = SimTime::from_micros(1_672);
        w.run_until(end - SimDuration::from_micros(1));
        let before = w.events_dispatched();
        assert!(w.stats().samples("order").is_empty());
        w.run_until(end);
        // The TxEnd, one reception per candidate (k = 3), and the
        // zero-delay timer node 1 armed from its reception.
        assert_eq!(w.events_dispatched() - before, 1 + 3 + 1);
        assert_eq!(w.stats().samples("order"), &[0.0, 1.0, 2.0, 3.0, 101.0]);
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(
            w.stats().samples("order"),
            &[0.0, 1.0, 2.0, 3.0, 101.0, 200.0]
        );
    }

    #[test]
    fn wire_messages_arrive_after_latency() {
        struct W {
            got: Vec<(NodeId, Vec<u8>, SimTime)>,
            send_to: Option<NodeId>,
        }
        impl Proto for W {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(to) = self.send_to {
                    ctx.wire_send(to, vec![9, 9]);
                }
            }
            fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
                self.got.push((from, payload.to_vec(), ctx.now()));
            }
        }
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(
            Pos::new(0.0, 0.0),
            Box::new(W {
                got: vec![],
                send_to: Some(NodeId(1)),
            }),
        );
        let b = w.add_node(
            Pos::new(1000.0, 0.0), // far out of radio range: wire still works
            Box::new(W {
                got: vec![],
                send_to: None,
            }),
        );
        w.run_for(SimDuration::from_secs(1));
        let got = &w.proto::<W>(b).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, a);
        assert_eq!(got[0].1, vec![9, 9]);
        assert_eq!(got[0].2, SimTime::from_millis(20));
    }

    #[test]
    fn energy_accounting_through_ctx() {
        struct E;
        impl Proto for E {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("on");
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                ctx.radio_off().expect("off");
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(E));
        w.run_for(SimDuration::from_secs(10));
        let u = w.energy(n);
        assert_eq!(u.listen, SimDuration::from_secs(1));
        assert_eq!(u.sleep, SimDuration::from_secs(9));
    }

    #[test]
    fn run_until_idle_drains() {
        let mut w = World::new(SimConfig::default());
        w.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
        assert!(w.run_until_idle(SimTime::from_secs(5)));
    }

    #[test]
    fn scheduled_actions_run_in_order() {
        let mut w = World::new(SimConfig::default());
        w.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
        w.schedule(SimTime::from_secs(1), |w| w.stats_mut().record("o", 1.0));
        w.schedule(SimTime::from_secs(2), |w| w.stats_mut().record("o", 2.0));
        w.schedule(SimTime::from_secs(1), |w| w.stats_mut().record("o", 1.5));
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(w.stats().samples("o"), &[1.0, 1.5, 2.0]);
    }

    #[test]
    fn stats_via_ctx() {
        struct S;
        impl Proto for S {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.count("boots", 1.0);
                ctx.count_node("boots", 1.0);
                ctx.record("x", 7.0);
                assert_eq!(ctx.stats().get("boots"), 1.0);
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(S));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.stats().get("boots"), 1.0);
        assert_eq!(w.stats().get_node(n, "boots"), 1.0);
        assert_eq!(w.stats().samples("x"), &[7.0]);
    }

    #[test]
    fn expired_txid_drop_counts_per_node() {
        // A transmission end whose record aged out of the slab finds no
        // record — the global medium stat says how many, the per-node
        // counter says whose transmission it was. It has no receptions.
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
        let _b = w.add_node(Pos::new(10.0, 0.0), Box::new(Idle));
        w.run_for(SimDuration::from_millis(1));
        // A TxId no slab record ever matched (generation 7 of slot 0).
        let stale = crate::radio::TxId(7u64 << 32);
        let at = w.now() + SimDuration::from_millis(1);
        w.kernel.push(at, Ev::TxEnd { node: a, tx: stale });
        let before = w.events_dispatched();
        w.run_for(SimDuration::from_millis(2));
        assert_eq!(w.medium().stats().lost_expired, 1);
        assert_eq!(w.stats().get_node(a, "expired_txid"), 1.0);
        assert_eq!(w.events_dispatched() - before, 1);
    }

    #[test]
    fn fired_and_cancelled_timers_leave_nothing_behind() {
        // Node 0 arms timer A (5 ms) and B (10 ms). When A fires it
        // cancels itself (the timer now firing) and cancels it again;
        // when B fires it cancels A (already fired) and arms and cancels
        // C. Every id goes stale and no slot stays armed.
        #[derive(Default)]
        struct T {
            a: TimerId,
            fired: Vec<u64>,
        }
        impl Proto for T {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                self.a = ctx.set_timer(SimDuration::from_millis(5), 1);
                ctx.set_timer(SimDuration::from_millis(10), 2);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, t: Timer) {
                self.fired.push(t.tag);
                ctx.cancel_timer(t.id);
                ctx.cancel_timer(self.a);
                if t.tag == 2 {
                    let c = ctx.set_timer(SimDuration::from_millis(1), 3);
                    ctx.cancel_timer(c);
                }
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(T::default()));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.proto::<T>(n).fired, vec![1, 2]);
        assert_eq!(w.kernel.timers.armed(), 0, "no timer stays armed");
        // Three timers, at most two armed at once: two slots, both free.
        assert_eq!(w.kernel.timers.generations.len(), 2);
        assert_eq!(w.kernel.timers.free.len(), 2);
    }
}
