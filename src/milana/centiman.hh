/**
 * @file
 * Centiman-style local validation baseline (paper section 5.3,
 * following Ding et al., SoCC'15).
 *
 * Centiman lets a client validate a read-only transaction locally only
 * when the whole snapshot it read lies *below the watermark* — the
 * timestamp below which all transactions are known to be fully
 * processed. The watermark is disseminated lazily (the paper's
 * experiment: every 1,000 transactions), so under contention hot keys
 * carry versions younger than the watermark and the local check fails,
 * forcing a remote validation round trip to the shard validators.
 *
 * MILANA's multi-version storage lets it validate *every* read-only
 * transaction locally instead (the prepared-flag argument of section
 * 4.3), which is exactly the gap Figure 9 measures: equal throughput
 * at low contention, ~20% MILANA advantage at high contention, and a
 * Centiman local-validation success rate falling from ~89% (alpha 0.4)
 * to ~25% (alpha 0.8).
 *
 * The validators are the shard primaries (one per shard, co-located
 * with storage, unreplicated), matching the experimental setup.
 */

#ifndef MILANA_CENTIMAN_HH
#define MILANA_CENTIMAN_HH

#include <map>
#include <set>

#include "milana/client.hh"

namespace milana {

/**
 * The shared watermark service: tracks each client's latest decided
 * timestamp, but publishes updates only every `disseminateEvery`
 * decisions per client — the dissemination lag that makes the local
 * check fail under contention.
 */
class CentimanSystem
{
  public:
    explicit CentimanSystem(std::uint32_t disseminate_every = 1000)
        : every_(disseminate_every)
    {
    }

    void registerClient(common::ClientId client);

    /** A client decided a transaction at local time @p ts. */
    void reportDecided(common::ClientId client, common::Time ts);

    /** The currently published watermark (0 until every registered
     *  client has published at least once). */
    common::Time watermark() const;

  private:
    std::uint32_t every_;
    std::set<common::ClientId> expected_;
    std::map<common::ClientId, common::Time> published_;
    std::map<common::ClientId, std::uint32_t> sinceDissemination_;
    std::map<common::ClientId, common::Time> latest_;
};

class CentimanClient : public MilanaClient
{
  public:
    CentimanClient(sim::Simulator &sim, net::Network &net, NodeId node,
                   ClientId client_id, clocksync::Clock &clock,
                   const semel::Master &master,
                   const semel::Directory &directory,
                   const TxnConfig &txn_config, CentimanSystem &system);

  protected:
    sim::Task<CommitResult> decideCommit(Transaction &txn) override;

  private:
    CentimanSystem &system_;
    // Stat handles, each bound at its first use.
    common::CounterHandle localValidated_{stats_, "centiman.local_validated"};
    common::CounterHandle remoteValidated_{
        stats_, "centiman.remote_validated"};
    common::CounterHandle roTxns_{stats_, "centiman.ro_txns"};
};

} // namespace milana

#endif // MILANA_CENTIMAN_HH
