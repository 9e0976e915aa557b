#include "milana/centiman.hh"

#include <algorithm>
#include <limits>

namespace milana {

void
CentimanSystem::registerClient(common::ClientId client)
{
    expected_.insert(client);
}

void
CentimanSystem::reportDecided(common::ClientId client, common::Time ts)
{
    latest_[client] = std::max(latest_[client], ts);
    auto &count = sinceDissemination_[client];
    ++count;
    if (count >= every_ || !published_.count(client)) {
        count = 0;
        published_[client] = latest_[client];
    }
}

common::Time
CentimanSystem::watermark() const
{
    if (published_.size() < expected_.size() || expected_.empty())
        return 0;
    common::Time w = std::numeric_limits<common::Time>::max();
    for (const auto &[client, ts] : published_)
        w = std::min(w, ts);
    return w;
}

CentimanClient::CentimanClient(sim::Simulator &sim, net::Network &net,
                               NodeId node, ClientId client_id,
                               clocksync::Clock &clock,
                               const semel::Master &master,
                               const semel::Directory &directory,
                               const TxnConfig &txn_config,
                               CentimanSystem &system)
    : MilanaClient(sim, net, node, client_id, clock, master, directory,
                   txn_config),
      system_(system)
{
    system_.registerClient(client_id);
}

sim::Task<CommitResult>
CentimanClient::decideCommit(Transaction &txn)
{
    CommitResult result;
    if (!txn.readOnly()) {
        result = co_await twoPhaseCommit(txn, false);
    } else if (txn.snapshotViolated_) {
        txn.abortReason_ = semel::AbortReason::SnapshotViolated;
        result = CommitResult::Aborted;
    } else {
        roTxns_.inc();
        // Local check: the whole snapshot must lie below the
        // (lazily disseminated) watermark.
        const common::Time watermark = system_.watermark();
        bool below = true;
        for (const auto &[key, cached] : txn.readSet_) {
            if (cached.found &&
                cached.observed.timestamp > watermark) {
                below = false;
                break;
            }
        }
        if (below) {
            localValidated_.inc();
            result = CommitResult::Committed;
        } else {
            // Remote validation at the shard validators.
            remoteValidated_.inc();
            result = co_await twoPhaseCommit(txn, true);
        }
    }
    system_.reportDecided(clientId(), clock().localNow());
    co_return result;
}

} // namespace milana
