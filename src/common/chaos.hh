/**
 * @file
 * Deterministic chaos engine: a seedable fault-schedule interpreter.
 *
 * A ChaosEngine holds a list of FaultSpecs — faults parsed from a
 * small line-oriented DSL (see docs/CHAOS.md) or added
 * programmatically — and the time-ordered list of the inject and heal
 * actions they imply. The engine itself knows nothing about the
 * network, clocks, or flash layers: it owns the *schedule* (parsing,
 * ordering, activation windows, trace/metrics recording, dedicated
 * RNG streams). workload::Cluster::armChaos() turns every action into
 * an ordinary simulator event that performs the layer-specific
 * mutation and then record()s the action here.
 *
 * Determinism contract (CONCURRENCY.md):
 *
 *  - A fault is an event like any other: it runs at `origin + at` in
 *    the simulator's (when, seq) order, so same-instant ties break by
 *    the order in which the events were scheduled.
 *  - All fault randomness comes from Rng streams forked off the
 *    engine's seed in construction order, never from the simulators'
 *    streams, so a run is replayable from (schedule, seed) and
 *    injections do not perturb unrelated random sequences.
 *  - Schedule times are relative to the instant the cluster arms the
 *    engine; until then no action is scheduled, which lets harnesses
 *    keep warmup fault-free and schedule in "time since measurement
 *    start".
 */

#ifndef COMMON_CHAOS_HH
#define COMMON_CHAOS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace common {

/** Everything the engine can inject, across the three fault layers. */
enum class FaultKind : std::uint8_t {
    // net
    NodeCrash,      ///< node down (+ optional failover), restart on heal
    LinkPartition,  ///< drop messages on selected links (oneway = asym)
    LinkDelay,      ///< delay-spike: multiply link latency by magnitude
    // clocksync
    ClockStep,      ///< step a clock by `magnitude` ns (leap)
    ClockStuck,     ///< freeze a clock's output until healed
    ClockDrift,     ///< runaway oscillator: add `magnitude` ppm drift
    ClockMasterDown,///< PTP master outage: agents hold over, no syncs
    // flash
    SsdSlowChannel, ///< one gray channel: latency x magnitude
    SsdReadRetry,   ///< read-retry storm: P(retry)=magnitude, <=retries
    SsdGcStorm,     ///< background GC ops hog every channel
};

const char *faultKindName(FaultKind kind);

/**
 * A node (or node set) named symbolically, resolved by the cluster at
 * apply time — so one schedule works for any topology and survives
 * failovers ("primary:0" is whoever the master map says it is *now*).
 */
struct NodeSel
{
    enum class Kind : std::uint8_t {
        None,       ///< absent
        Node,       ///< raw node id / raw index (`node:7`, `clock:2`)
        Primary,    ///< `primary:S` — current primary of shard `index`
        Backup,     ///< `backup:S:R` — replica `sub` of shard `index`
        Client,     ///< `client:C` — client number `index`
        AllClients, ///< `client:*` / `clients`
        AllServers, ///< `node:*` / `servers`
        All,        ///< `all` — every server and client
    };
    Kind kind = Kind::None;
    std::int64_t index = 0;
    std::int64_t sub = 0;
};

/** One scheduled fault. Times are relative to the arming instant. */
struct FaultSpec
{
    FaultKind kind = FaultKind::NodeCrash;
    Time at = 0;             ///< injection time (since arming)
    Duration duration = 0;   ///< 0 = never healed (active to run end)
    NodeSel selA;            ///< subject (node/clock/device)
    NodeSel selB;            ///< second endpoint (partitions, delay)
    std::int64_t channel = -1; ///< SsdSlowChannel: which channel
    std::int64_t retries = 0;  ///< SsdReadRetry: max extra retries/op
    double magnitude = 0.0;  ///< factor / ppm / step ns / probability
    bool oneway = false;     ///< LinkPartition: drop selA->selB only
    bool failover = false;   ///< NodeCrash: promote a backup too
    std::string name;        ///< label for traces/tags (default: verb)
};

class ChaosEngine
{
  public:
    explicit ChaosEngine(std::uint64_t seed = 1) : rng_(seed) {}

    /**
     * Parse a schedule (one fault per line, `#` comments); appends to
     * any faults already added. On a syntax error returns false and,
     * when @p error is non-null, stores "line N: why".
     */
    bool parse(std::string_view text, std::string *error = nullptr);
    bool parseFile(const std::string &path, std::string *error = nullptr);

    /** One inject (`start`) or heal of a fault, `at` after arming. */
    struct Action
    {
        Time at = 0;
        std::uint32_t fault = 0; ///< index into faults()
        bool start = true;
    };

    /** Append one fault programmatically; its actions join actions()
     *  after every action already due at the same time. */
    void add(FaultSpec spec);

    std::size_t faultCount() const { return faults_.size(); }
    const std::vector<FaultSpec> &faults() const { return faults_; }
    /** Every action, ordered by time; same-time actions keep the
     *  order in which their faults were added. */
    const std::vector<Action> &actions() const { return actions_; }

    /**
     * Book one action that has just been applied: the active-fault
     * stack, the counters and a `chaos.inject`/`chaos.heal` trace
     * instant.
     */
    void record(const Action &action);

    std::uint32_t activeCount() const
    {
        return static_cast<std::uint32_t>(activeStack_.size());
    }
    bool anyActive() const { return !activeStack_.empty(); }
    bool clockFaultActive() const;
    /** Name of the most recently injected still-active fault ("" when
     *  none) — used to tag aborted-transaction traces. */
    std::string_view activeFaultName() const;

    std::uint64_t injections() const { return injections_; }
    std::uint64_t heals() const { return heals_; }

    /** Dedicated child stream for one component's fault randomness
     *  (e.g. an SSD's read-retry coin flips). Fork order is part of
     *  the determinism contract: callers fork in construction order. */
    Rng forkRng() { return rng_.fork(); }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }
    Tracer &tracer() { return trace_; }

  private:
    Rng rng_;
    std::vector<FaultSpec> faults_;
    std::vector<Action> actions_;

    /** Indices of active faults, injection order (LIFO for naming). */
    std::vector<std::uint32_t> activeStack_;
    std::uint64_t injections_ = 0;
    std::uint64_t heals_ = 0;

    StatSet stats_;
    Tracer trace_;
};

} // namespace common

#endif // COMMON_CHAOS_HH
