/**
 * @file
 * ChaosEngine implementation: schedule DSL parser + action bookkeeping.
 */

#include "common/chaos.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace common {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::NodeCrash:      return "crash";
    case FaultKind::LinkPartition:  return "partition";
    case FaultKind::LinkDelay:      return "delay";
    case FaultKind::ClockStep:      return "clock-step";
    case FaultKind::ClockStuck:     return "clock-stuck";
    case FaultKind::ClockDrift:     return "clock-drift";
    case FaultKind::ClockMasterDown:return "master-down";
    case FaultKind::SsdSlowChannel: return "ssd-slow";
    case FaultKind::SsdReadRetry:   return "ssd-retry";
    case FaultKind::SsdGcStorm:     return "ssd-gc";
    }
    return "?";
}

namespace {

bool
parseInt(std::string_view tok, std::int64_t *out)
{
    const std::string s(tok);
    char *end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || s.empty())
        return false;
    *out = v;
    return true;
}

bool
parseDouble(std::string_view tok, double *out)
{
    const std::string s(tok);
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == nullptr || *end != '\0' || s.empty())
        return false;
    *out = v;
    return true;
}

/** `node:3`, `node:*`, `primary:0`, `backup:0:1`, `client:2`,
 *  `client:*`, `clock:1`, `clients`, `servers`, `all`. */
bool
parseNodeSel(std::string_view tok, NodeSel *out)
{
    if (tok == "all") {
        out->kind = NodeSel::Kind::All;
        return true;
    }
    if (tok == "clients") {
        out->kind = NodeSel::Kind::AllClients;
        return true;
    }
    if (tok == "servers") {
        out->kind = NodeSel::Kind::AllServers;
        return true;
    }
    const std::size_t colon = tok.find(':');
    if (colon == std::string_view::npos)
        return false;
    const std::string_view head = tok.substr(0, colon);
    std::string_view rest = tok.substr(colon + 1);
    if (head == "node" || head == "clock") {
        if (rest == "*") {
            if (head == "clock")
                return false;
            out->kind = NodeSel::Kind::AllServers;
            return true;
        }
        out->kind = NodeSel::Kind::Node;
        return parseInt(rest, &out->index);
    }
    if (head == "client") {
        if (rest == "*") {
            out->kind = NodeSel::Kind::AllClients;
            return true;
        }
        out->kind = NodeSel::Kind::Client;
        return parseInt(rest, &out->index);
    }
    if (head == "primary") {
        out->kind = NodeSel::Kind::Primary;
        return parseInt(rest, &out->index);
    }
    if (head == "backup") {
        const std::size_t colon2 = rest.find(':');
        out->kind = NodeSel::Kind::Backup;
        if (colon2 == std::string_view::npos)
            return parseInt(rest, &out->index);
        return parseInt(rest.substr(0, colon2), &out->index) &&
               parseInt(rest.substr(colon2 + 1), &out->sub);
    }
    return false;
}

bool
lookupVerb(std::string_view verb, FaultKind *out)
{
    static constexpr FaultKind kAll[] = {
        FaultKind::NodeCrash,      FaultKind::LinkPartition,
        FaultKind::LinkDelay,      FaultKind::ClockStep,
        FaultKind::ClockStuck,     FaultKind::ClockDrift,
        FaultKind::ClockMasterDown,FaultKind::SsdSlowChannel,
        FaultKind::SsdReadRetry,   FaultKind::SsdGcStorm,
    };
    for (FaultKind k : kAll) {
        if (verb == faultKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

std::vector<std::string_view>
tokenize(std::string_view line)
{
    std::vector<std::string_view> toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                      line[i])))
            ++i;
        std::size_t start = i;
        while (i < line.size() && !std::isspace(static_cast<unsigned char>(
                                       line[i])))
            ++i;
        if (i > start)
            toks.push_back(line.substr(start, i - start));
    }
    return toks;
}

bool
parseLine(std::string_view line, FaultSpec *spec, std::string *why)
{
    const std::vector<std::string_view> toks = tokenize(line);
    if (toks.size() < 3 || toks[0] != "at") {
        *why = "expected `at <time> <fault> ...`";
        return false;
    }
    if (!parseDuration(toks[1], &spec->at)) {
        *why = "bad time `" + std::string(toks[1]) + "`";
        return false;
    }
    if (!lookupVerb(toks[2], &spec->kind)) {
        *why = "unknown fault `" + std::string(toks[2]) + "`";
        return false;
    }
    spec->name = std::string(toks[2]);

    int sels = 0;
    for (std::size_t i = 3; i < toks.size(); ++i) {
        const std::string_view tok = toks[i];
        if (tok == "for") {
            if (i + 1 >= toks.size() ||
                !parseDuration(toks[++i], &spec->duration)) {
                *why = "bad `for <duration>`";
                return false;
            }
            continue;
        }
        if (tok == "oneway") {
            spec->oneway = true;
            continue;
        }
        if (tok == "failover") {
            spec->failover = true;
            continue;
        }
        const std::size_t eq = tok.find('=');
        if (eq != std::string_view::npos) {
            const std::string_view key = tok.substr(0, eq);
            const std::string_view val = tok.substr(eq + 1);
            bool ok = true;
            if (key == "factor" || key == "ppm" || key == "prob")
                ok = parseDouble(val, &spec->magnitude);
            else if (key == "by") {
                Duration d = 0;
                ok = parseDuration(val, &d);
                spec->magnitude = static_cast<double>(d);
            } else if (key == "channel")
                ok = parseInt(val, &spec->channel);
            else if (key == "retries")
                ok = parseInt(val, &spec->retries);
            else if (key == "name")
                spec->name = std::string(val);
            else {
                *why = "unknown key `" + std::string(key) + "`";
                return false;
            }
            if (!ok) {
                *why = "bad value for `" + std::string(key) + "`";
                return false;
            }
            continue;
        }
        NodeSel sel;
        if (!parseNodeSel(tok, &sel)) {
            *why = "unrecognized token `" + std::string(tok) + "`";
            return false;
        }
        if (sels == 0)
            spec->selA = sel;
        else if (sels == 1)
            spec->selB = sel;
        else {
            *why = "more than two node selectors";
            return false;
        }
        ++sels;
    }

    // Per-kind sanity so schedule mistakes fail at parse, not mid-run.
    switch (spec->kind) {
    case FaultKind::NodeCrash:
    case FaultKind::ClockStep:
    case FaultKind::ClockStuck:
    case FaultKind::ClockDrift:
    case FaultKind::SsdSlowChannel:
    case FaultKind::SsdReadRetry:
    case FaultKind::SsdGcStorm:
        if (spec->selA.kind == NodeSel::Kind::None) {
            *why = "fault needs a target selector";
            return false;
        }
        break;
    case FaultKind::LinkPartition:
        if (spec->selA.kind == NodeSel::Kind::None ||
            spec->selB.kind == NodeSel::Kind::None) {
            *why = "partition needs two endpoint selectors";
            return false;
        }
        break;
    case FaultKind::LinkDelay:
        if (spec->magnitude <= 0.0) {
            *why = "delay needs factor=F > 0";
            return false;
        }
        break;
    case FaultKind::ClockMasterDown:
        break;
    }
    if (spec->kind == FaultKind::LinkDelay && spec->selA.kind ==
            NodeSel::Kind::None)
        spec->selA.kind = NodeSel::Kind::All;
    if (spec->kind == FaultKind::SsdSlowChannel &&
        (spec->magnitude <= 0.0 || spec->channel < 0)) {
        *why = "ssd-slow needs channel=N and factor=F > 0";
        return false;
    }
    if (spec->kind == FaultKind::SsdReadRetry &&
        (spec->magnitude <= 0.0 || spec->magnitude > 1.0)) {
        *why = "ssd-retry needs prob=P in (0,1]";
        return false;
    }
    return true;
}

} // namespace

bool
ChaosEngine::parse(std::string_view text, std::string *error)
{
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::string_view line =
            text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                          : nl - pos);
        ++lineNo;
        pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;

        // Strip comments and blank lines.
        const std::size_t hash = line.find('#');
        const std::string_view body =
            hash == std::string_view::npos ? line : line.substr(0, hash);
        if (tokenize(body).empty())
            continue;

        FaultSpec spec;
        std::string why;
        if (!parseLine(body, &spec, &why)) {
            if (error != nullptr) {
                std::ostringstream os;
                os << "line " << lineNo << ": " << why;
                *error = os.str();
            }
            return false;
        }
        add(std::move(spec));
    }
    return true;
}

bool
ChaosEngine::parseFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream os;
    os << is.rdbuf();
    return parse(os.str(), error);
}

void
ChaosEngine::add(FaultSpec spec)
{
    if (spec.name.empty())
        spec.name = faultKindName(spec.kind);
    const auto index = static_cast<std::uint32_t>(faults_.size());
    const auto insert = [this](Action action) {
        const auto at = std::upper_bound(
            actions_.begin(), actions_.end(), action.at,
            [](Time t, const Action &a) { return t < a.at; });
        actions_.insert(at, action);
    };
    insert({spec.at, index, true});
    if (spec.duration > 0)
        insert({spec.at + spec.duration, index, false});
    faults_.push_back(std::move(spec));
}

void
ChaosEngine::record(const Action &action)
{
    const FaultSpec &fault = faults_[action.fault];
    if (action.start) {
        activeStack_.push_back(action.fault);
        ++injections_;
        stats_.counter("injected").inc();
        stats_.counter(std::string("injected.") +
                       faultKindName(fault.kind))
            .inc();
        trace_.instant("chaos.inject", fault.name,
                       static_cast<std::int64_t>(action.fault),
                       static_cast<std::int64_t>(fault.kind));
    } else {
        activeStack_.erase(std::remove(activeStack_.begin(),
                                       activeStack_.end(), action.fault),
                           activeStack_.end());
        ++heals_;
        stats_.counter("healed").inc();
        trace_.instant("chaos.heal", fault.name,
                       static_cast<std::int64_t>(action.fault),
                       static_cast<std::int64_t>(fault.kind));
    }
}

bool
ChaosEngine::clockFaultActive() const
{
    return std::any_of(
        activeStack_.begin(), activeStack_.end(), [this](std::uint32_t i) {
            switch (faults_[i].kind) {
            case FaultKind::ClockStep:
            case FaultKind::ClockStuck:
            case FaultKind::ClockDrift:
            case FaultKind::ClockMasterDown:
                return true;
            default:
                return false;
            }
        });
}

std::string_view
ChaosEngine::activeFaultName() const
{
    if (activeStack_.empty())
        return {};
    return faults_[activeStack_.back()].name;
}

} // namespace common
