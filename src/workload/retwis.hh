/**
 * @file
 * The Retwis benchmark (paper Table 2): a Twitter-clone transaction
 * mix over a key-value store.
 *
 *   Transaction    gets        puts   default %   read-heavy %
 *   Add User       1           2      5           5
 *   Follow User    2           2      10          10
 *   Post Tweet     3           5      35          10
 *   Get Timeline   rand(1,10)  0      50          75
 *
 * Keys are drawn from a scrambled Zipf distribution; the paper's
 * "Retwis contention parameter (alpha)" is the Zipf exponent. Each
 * instance runs one transaction at a time and, as in the paper's
 * experiments, "retries an aborted transaction with the same set of
 * keys and without any wait".
 *
 * Abort rate = aborts / (aborts + commits), counting each retry.
 */

#ifndef WORKLOAD_RETWIS_HH
#define WORKLOAD_RETWIS_HH

#include <memory>
#include <vector>

#include "common/histogram.hh"
#include "common/small_vector.hh"
#include "common/stats.hh"
#include "common/zipf.hh"
#include "milana/client.hh"
#include "workload/cluster.hh"

namespace workload {

struct RetwisConfig
{
    /** Zipf contention parameter. */
    double alpha = 0.6;
    std::uint64_t numKeys = 50'000;
    /** Use the 75%-read-only mix of Figures 8 and 9. */
    bool readHeavy = false;
    std::uint64_t seed = 7;
};

/**
 * One sequential Retwis session bound to one MILANA client. It draws
 * keys from @p zipf, the fleet's shared key distribution, with its own
 * @p rng.
 */
class RetwisInstance
{
  public:
    RetwisInstance(milana::MilanaClient &client,
                   const RetwisConfig &config,
                   const common::ScrambledZipf &zipf, common::Rng rng);

    /** Closed-loop driver; winds down on Simulator::requestStop. */
    sim::Task<void> run(sim::Simulator &sim);

    // Measurement (reset clears, e.g. after warm-up).
    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }
    const common::Histogram &latency() const { return latency_; }
    void resetMeasurement();

    double
    abortRate() const
    {
        const double total = static_cast<double>(commits_ + aborts_);
        return total == 0 ? 0.0 : static_cast<double>(aborts_) / total;
    }

  private:
    /** At most ten gets and five puts (Table 2): always inline. */
    struct TxnShape
    {
        common::SmallVector<common::Key, 10> reads;
        common::SmallVector<common::Key, 5> writes;
    };

    TxnShape nextShape();
    sim::Task<bool> runOnce(const TxnShape &shape,
                            milana::CommitResult &result);

    milana::MilanaClient &client_;
    RetwisConfig config_;
    common::Rng rng_;
    const common::ScrambledZipf &zipf_;
    std::uint64_t serial_ = 0;

    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
    std::uint64_t failures_ = 0;
    common::Histogram latency_;
};

/**
 * A fleet of Retwis instances over a cluster's clients, one session
 * per MILANA client: the paper runs 4-6 instances per client VM, and
 * here each instance gets its own client and clock.
 */
class RetwisWorkload
{
  public:
    RetwisWorkload(Cluster &cluster, const RetwisConfig &config);

    // The instances hold a reference to zipf_.
    RetwisWorkload(const RetwisWorkload &) = delete;
    RetwisWorkload &operator=(const RetwisWorkload &) = delete;

    void start();
    void resetMeasurement();

    std::uint64_t totalCommits() const;
    std::uint64_t totalAborts() const;
    double abortRate() const;
    common::Histogram mergedLatency() const;

  private:
    Cluster &cluster_;
    /** One key distribution for every instance: its zeta sum over the
     *  key space is the costly part of building a fleet. */
    common::ScrambledZipf zipf_;
    std::vector<std::unique_ptr<RetwisInstance>> instances_;
};

} // namespace workload

#endif // WORKLOAD_RETWIS_HH
