//! Golden drain statistics for the ingest pipeline.
//!
//! The table below was recorded bit for bit from the earlier drain,
//! which ran one scoped thread per shard and merged per-shard results
//! in shard order. The drain must keep shard order, queue order and
//! drain order, so every tenant's latency histogram sees the same
//! observation sequence and even the means match to the last bit.

use iiot_cloud::{
    DeviceRegistry, IngestConfig, IngestPipeline, Isolation, ShedPolicy, TenantId, UplinkMsg,
};
use iiot_security::Key;
use iiot_sim::{SimDuration, SimTime};
use Isolation::{PerTenant, Shared};
use ShedPolicy::{DropOldest, RejectNew};

/// One tenant's drain statistics, exactly: (tenant, offered, accepted,
/// shed_auth, shed_ratelimit, shed_full, drained, max_depth, latency
/// p50 bits, p99 bits, mean bits, count).
type Row = (u16, u64, u64, u64, u64, u64, u64, u32, u64, u64, u64, u64);

/// The 4000-message drain workload: four tenants of 50 devices
/// round-robin, one arrival every `spacing_us`, every 101st with a bad
/// token, 64-deep queues and 1 ms ticks. Returns the final instant and
/// every tenant's statistics.
fn run(
    (shards, drain_batch, spacing_us): (usize, usize, u64),
    isolation: Isolation,
    policy: ShedPolicy,
) -> (u64, Vec<Row>) {
    let mut registry = DeviceRegistry::new();
    for name in ["a", "b", "c", "d"] {
        let t = registry.create_tenant(name, Key([name.as_bytes()[0]; 16]));
        registry.register_fleet(t, 50);
    }
    let config = IngestConfig {
        shards,
        queue_cap: 64,
        drain_batch,
        tick: SimDuration::from_millis(1),
        policy,
        isolation,
    };
    let mut p = IngestPipeline::new(registry, config);
    for i in 0..4000u64 {
        let tenant = TenantId((i % 4) as u16);
        let device = (i % 50) as u32;
        let token = p.registry().token(tenant, device).expect("registered");
        let token = token ^ u64::from(i % 101 == 0);
        let t = SimTime::from_micros(i * spacing_us);
        p.drain_until(t);
        p.offer(UplinkMsg {
            tenant,
            device,
            token,
            value: 1.0,
            t,
        });
    }
    p.drain_remaining();
    let rows = p
        .stats()
        .map(|(t, s)| {
            let h = &s.latency_us;
            (
                t.0,
                s.offered,
                s.accepted,
                s.shed_auth,
                s.shed_ratelimit,
                s.shed_full,
                s.drained,
                s.max_depth,
                h.quantile(0.5).to_bits(),
                h.quantile(0.99).to_bits(),
                h.mean().to_bits(),
                h.count(),
            )
        })
        .collect();
    (p.now().as_micros(), rows)
}

/// ((shards, drain_batch, spacing µs), isolation, policy, final
/// instant µs, rows).
type Case = ((usize, usize, u64), Isolation, ShedPolicy, u64, [Row; 4]);

/// A light drain budget that sheds only bad tokens; a saturating one
/// where both policies and both isolations shed to backpressure; and
/// sparse arrivals (2.5 ticks apart) that leave most ticks empty.
#[rustfmt::skip]
const GOLDEN: [Case; 9] = [
    ((4, 16, 17), PerTenant, RejectNew, 68_000, [
        (0, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f614afd6a052c, 990),
        (1, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f53e0f83e0f84, 990),
        (2, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f364d9364d936, 990),
        (3, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f28e38e38e38e, 990),
    ]),
    ((4, 16, 17), PerTenant, DropOldest, 68_000, [
        (0, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f614afd6a052c, 990),
        (1, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f53e0f83e0f84, 990),
        (2, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f364d9364d936, 990),
        (3, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f28e38e38e38e, 990),
    ]),
    ((4, 16, 17), Shared, RejectNew, 68_000, [
        (0, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f614afd6a052c, 990),
        (1, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f53e0f83e0f84, 990),
        (2, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f364d9364d936, 990),
        (3, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f28e38e38e38e, 990),
    ]),
    ((4, 16, 17), Shared, DropOldest, 68_000, [
        (0, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f614afd6a052c, 990),
        (1, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f53e0f83e0f84, 990),
        (2, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f364d9364d936, 990),
        (3, 1000, 990, 10, 0, 0, 990, 15, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f28e38e38e38e, 990),
    ]),
    ((2, 12, 17), PerTenant, RejectNew, 73_000, [
        (0, 1000, 868, 10, 0, 122, 868, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b03b6db6db6db7, 868),
        (1, 1000, 868, 10, 0, 122, 868, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b03a911b223644, 868),
        (2, 1000, 868, 10, 0, 122, 868, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b039f0a9e153c3, 868),
        (3, 1000, 868, 10, 0, 122, 868, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b0393c2a7854f1, 868),
    ]),
    ((2, 12, 17), PerTenant, DropOldest, 73_000, [
        (0, 1000, 990, 10, 0, 122, 868, 64, 0x40a8b48e29793d2f, 0x40b393df516e1278, 0x40aba3bb937726ee, 868),
        (1, 1000, 990, 10, 0, 122, 868, 64, 0x40a8b48e29793d2f, 0x40b393df516e1278, 0x40aba2025c04b809, 868),
        (2, 1000, 990, 10, 0, 122, 868, 64, 0x40a8b48e29793d2f, 0x40b393df516e1278, 0x40aba04924924925, 868),
        (3, 1000, 990, 10, 0, 122, 868, 64, 0x40a8b48e29793d2f, 0x40b393df516e1278, 0x40ab9f0842108421, 868),
    ]),
    ((2, 12, 17), Shared, RejectNew, 73_000, [
        (0, 1000, 438, 10, 0, 552, 438, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b30dae2c6b8b1b, 438),
        (1, 1000, 431, 10, 0, 559, 431, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b30ea357502f84, 431),
        (2, 1000, 430, 10, 0, 560, 430, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b30faf0855baf1, 430),
        (3, 1000, 437, 10, 0, 553, 437, 64, 0x40b393df516e1278, 0x40b393df516e1278, 0x40b30bd410671a5d, 437),
    ]),
    ((2, 12, 17), Shared, DropOldest, 73_000, [
        (0, 1000, 990, 10, 0, 553, 437, 64, 0x409f2d0c9c4b9258, 0x40b393df516e1278, 0x40a012613eae9274, 437),
        (1, 1000, 990, 10, 0, 559, 431, 64, 0x409f2d0c9c4b9258, 0x40b393df516e1278, 0x40a00db8b9515fa1, 431),
        (2, 1000, 990, 10, 0, 559, 431, 64, 0x409f2d0c9c4b9258, 0x40b393df516e1278, 0x40a029b2c8c2d244, 431),
        (3, 1000, 990, 10, 0, 553, 437, 64, 0x409f2d0c9c4b9258, 0x40b393df516e1278, 0x40a0299d9561d4a6, 437),
    ]),
    ((4, 16, 2517), PerTenant, RejectNew, 10_066_000, [
        (0, 1000, 990, 10, 0, 0, 990, 1, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f614afd6a052c, 990),
        (1, 1000, 990, 10, 0, 0, 990, 1, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f43b79890cede, 990),
        (2, 1000, 990, 10, 0, 0, 990, 1, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f364d9364d936, 990),
        (3, 1000, 990, 10, 0, 0, 990, 1, 0x407f52fee8b01d8c, 0x4088d2a03986f199, 0x407f390cede62434, 990),
    ]),
];

#[test]
fn drain_statistics_match_golden() {
    for (budget, isolation, policy, now, rows) in GOLDEN {
        assert_eq!(
            run(budget, isolation, policy),
            (now, rows.to_vec()),
            "{budget:?}, {isolation:?}, {policy:?}"
        );
    }
}
