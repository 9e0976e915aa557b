/**
 * @file
 * Fundamental scalar types shared by every module: simulated time,
 * identifiers, and the SEMEL version stamp.
 *
 * All simulated time in this codebase is expressed in integer
 * nanoseconds since simulation start. Two distinct notions exist:
 *
 *  - TrueTime:  the simulator's global, perfectly accurate clock
 *               (the event-queue's notion of "now").
 *  - LocalTime: a node's possibly-skewed view of time produced by a
 *               clocksync::Clock. SEMEL/MILANA timestamps are always
 *               LocalTime values of the issuing client.
 *
 * Both are represented by the same integer type; the distinction is
 * by convention and by variable naming (true_now vs. local_now).
 */

#ifndef COMMON_TYPES_HH
#define COMMON_TYPES_HH

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace common {

/** Simulated time in nanoseconds. Signed so skewed clocks can lag. */
using Time = std::int64_t;

/** A span of simulated time in nanoseconds. */
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1'000;
constexpr Duration kMillisecond = 1'000'000;
constexpr Duration kSecond = 1'000'000'000;

/** Convert nanoseconds to floating-point microseconds (for reports). */
constexpr double
toMicros(Duration d)
{
    return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}

/** Convert nanoseconds to floating-point milliseconds (for reports). */
constexpr double
toMillis(Duration d)
{
    return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

/** Convert nanoseconds to floating-point seconds (for reports). */
constexpr double
toSeconds(Duration d)
{
    return static_cast<double>(d) / static_cast<double>(kSecond);
}

/**
 * Parse a duration: a number with an `ns`, `us`, `ms` or `s` suffix
 * ("250ms", "1.5s", "800us", "90ns"); a bare number means ms. The
 * chaos DSL and every duration flag share this grammar. Returns false
 * on anything else.
 */
bool parseDuration(std::string_view text, Duration *out);

/** Unique identifier of a SEMEL/MILANA client (application server). */
using ClientId = std::uint32_t;

/** Unique identifier of a node in the simulated cluster. */
using NodeId = std::uint32_t;

/** Identifier of a data shard. */
using ShardId = std::uint32_t;

/** Application-level key. Fixed-width for cheap copying and hashing. */
using Key = std::uint64_t;

/** Application-level value. */
using Value = std::string;

/**
 * A SEMEL version stamp: V = <timestamp, clientId> (paper section 3).
 *
 * The timestamp is the issuing client's LocalTime; the clientId breaks
 * ties between simultaneous writes from different clients, inducing a
 * total order over all versions of a key.
 */
struct Version
{
    Time timestamp = 0;
    ClientId clientId = 0;

    auto operator<=>(const Version &) const = default;

    /** The zero version, older than any real write. */
    static constexpr Version
    zero()
    {
        return Version{0, 0};
    }

    bool isZero() const { return timestamp == 0 && clientId == 0; }

    std::string toString() const;
};

/** A sentinel used where "no version" must be distinguishable. */
constexpr Version kNoVersion = Version{-1, 0};

} // namespace common

#endif // COMMON_TYPES_HH
