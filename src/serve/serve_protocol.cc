#include "serve/serve_protocol.hh"

#include "sim/logging.hh"

namespace migc
{

std::vector<std::string>
serveTokens(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
        std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
               line[i] != '\r')
            ++i;
        if (i > start)
            out.push_back(line.substr(start, i - start));
    }
    return out;
}

namespace
{

ServeRequest
badRequest(std::string message)
{
    ServeRequest req;
    req.kind = ServeRequest::Kind::error;
    req.error = std::move(message);
    return req;
}

} // namespace

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : tok) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

ServeRequest
parseServeRequest(const std::string &line)
{
    ServeRequest req;
    std::vector<std::string> tok = serveTokens(line);
    if (tok.empty() || tok[0][0] == '#')
        return req; // blank / comment: Kind::none
    const std::string &verb = tok[0];
    if (verb == "get" || verb == "match") {
        if (tok.size() != 4) {
            return badRequest(csprintf(
                "%s takes exactly 3 operands: %s <config> <workload> "
                "<policy> (got %zu)",
                verb.c_str(), verb.c_str(), tok.size() - 1));
        }
        req.kind = verb == "get" ? ServeRequest::Kind::get
                                 : ServeRequest::Kind::match;
        req.config = tok[1];
        req.workload = tok[2];
        req.policy = tok[3];
        return req;
    }
    if (verb == "stats" || verb == "wait" || verb == "help") {
        if (tok.size() != 1) {
            return badRequest(
                csprintf("%s takes no operands", verb.c_str()));
        }
        req.kind = verb == "stats" ? ServeRequest::Kind::stats
                   : verb == "wait" ? ServeRequest::Kind::wait
                                    : ServeRequest::Kind::help;
        return req;
    }
    if (verb == "lease" || verb == "done" || verb == "renew" ||
        verb == "push") {
        // Fleet verbs (core/fleet.hh):
        //   lease <worker> <gridhash>
        //   done <worker> <leaseid> <key>
        //   renew <worker> <leaseid>
        //   push <worker> <leaseid> <bytes> <checksum>
        const std::size_t want =
            verb == "done" ? 4 : verb == "push" ? 5 : 3;
        if (tok.size() != want) {
            return badRequest(csprintf(
                "%s takes exactly %zu operands (got %zu; try: help)",
                verb.c_str(), want - 1, tok.size() - 1));
        }
        std::uint64_t worker = 0;
        if (!parseU64(tok[1], worker) || worker > 4095) {
            return badRequest(csprintf(
                "%s: worker index '%s' is not an integer in "
                "[0, 4095]",
                verb.c_str(), tok[1].c_str()));
        }
        req.worker = static_cast<unsigned>(worker);
        if (verb == "lease") {
            if (!parseU64(tok[2], req.gridHash)) {
                return badRequest(csprintf(
                    "lease: grid fingerprint '%s' is not a decimal "
                    "uint64",
                    tok[2].c_str()));
            }
            req.kind = ServeRequest::Kind::lease;
            return req;
        }
        if (!parseU64(tok[2], req.leaseId)) {
            return badRequest(csprintf(
                "%s: lease id '%s' is not a decimal uint64",
                verb.c_str(), tok[2].c_str()));
        }
        if (verb == "renew") {
            req.kind = ServeRequest::Kind::renew;
            return req;
        }
        if (verb == "push") {
            if (!parseU64(tok[3], req.bytes) ||
                req.bytes > kServeMaxPushBytes) {
                return badRequest(csprintf(
                    "push: byte count '%s' is not an integer in "
                    "[0, %llu]",
                    tok[3].c_str(),
                    static_cast<unsigned long long>(
                        kServeMaxPushBytes)));
            }
            if (!parseU64(tok[4], req.checksum)) {
                return badRequest(csprintf(
                    "push: checksum '%s' is not a decimal uint64",
                    tok[4].c_str()));
            }
            req.kind = ServeRequest::Kind::push;
            return req;
        }
        std::uint64_t key = 0;
        if (!parseU64(tok[3], key) || key > UINT32_MAX) {
            return badRequest(csprintf(
                "done: grid index '%s' is not an integer in "
                "[0, 2^32)",
                tok[3].c_str()));
        }
        req.key = static_cast<std::uint32_t>(key);
        req.kind = ServeRequest::Kind::done;
        return req;
    }
    return badRequest(csprintf(
        "unknown command '%s' (try: help)", verb.c_str()));
}

std::string
serveHelpText()
{
    return
        "# get <config> <workload> <policy>   exact lookup; hit "
        "prints one CSV row,\n"
        "#                                    cold prints '# miss "
        "...' and simulates\n"
        "# match <config> <workload> <policy> glob lookup ('*', "
        "'?'); rows then\n"
        "#                                    '# matched N'\n"
        "# stats                              one-line counters\n"
        "# wait                               block until enqueued "
        "misses finish\n"
        "# help                               this text\n"
        "# <config> is a preset (default, paper, test) or a config "
        "signature;\n"
        "# match also globs over signatures. Rows are v3 cache CSV, "
        "status lines\n"
        "# start with '#'.\n"
        "# lease/done/renew/push are fleet-coordinator verbs "
        "(migc_sweep;\n"
        "# see docs/SWEEPS.md): they share this wire format but are "
        "answered only\n"
        "# by a sweep coordinator socket, never by migc_serve. "
        "push uploads one\n"
        "# checksummed v4 segment of finished rows (raw payload "
        "after the header\n"
        "# line).\n";
}

} // namespace migc
