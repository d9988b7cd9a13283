/**
 * @file
 * The byte transport under the fleet and serve sockets.
 *
 * PR 8's fleet coordinator and migc_serve each open-coded an AF_UNIX
 * listener; this header extracts the plumbing behind three small
 * types so the same protocol code runs over a local socket or TCP:
 *
 *  - Endpoint / parseEndpoint: one spec string names the transport.
 *    `unix:<path>` is an AF_UNIX stream socket, `tcp:<host>:<port>`
 *    an IPv4/IPv6 TCP socket (port 0 asks the kernel for an
 *    ephemeral port; Listener::bound() reports the real one). A bare
 *    string with no scheme is an AF_UNIX path, so every pre-TCP
 *    command line keeps working unchanged.
 *
 *  - Stream: a connected byte stream (read / writeAll / shutdown).
 *    FdStream wraps a socket fd; tests substitute in-memory fakes.
 *
 *  - Listener: bind + accept over an Endpoint, stoppable from
 *    another thread (stop() closes the fd, which unblocks accept).
 *
 * connectTo() dials an Endpoint and, on failure, reports the
 * underlying errno string instead of swallowing it - a fleet worker
 * that cannot reach its coordinator must say *why* (wrong host,
 * refused port, missing socket file).
 *
 * StreamWrapper is the one seam for substitutes: a fleet client
 * passes every stream it connects through it, so the chaos tests
 * can interpose their fault-injection shim (tests/support/).
 */

#ifndef MIGC_SERVE_TRANSPORT_HH
#define MIGC_SERVE_TRANSPORT_HH

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace migc
{

/** One parsed transport address. */
struct Endpoint
{
    enum class Kind
    {
        unix_, ///< AF_UNIX stream socket at `path`
        tcp,   ///< TCP stream socket at `host`:`port`
    };

    Kind kind = Kind::unix_;
    std::string path;        ///< unix: filesystem path
    std::string host;        ///< tcp: hostname or numeric address
    std::uint16_t port = 0;  ///< tcp: port (0 = ephemeral on bind)

    /** The canonical spec string ("unix:/x" / "tcp:host:port"). */
    std::string spec() const;
};

/**
 * Parse `unix:<path>`, `tcp:<host>:<port>`, or a bare AF_UNIX path
 * (anything without one of those schemes). Fatal on malformed specs
 * (empty path, missing or non-numeric port) - a mistyped endpoint
 * must never silently become a relative socket file.
 */
Endpoint parseEndpoint(const std::string &spec);

/**
 * A connected byte stream. Not internally synchronized: one reader
 * and one writer at a time (the fleet client serializes transactions
 * on its own mutex; the servers use one thread per connection).
 */
class Stream
{
  public:
    virtual ~Stream() = default;

    /** Up to @p n bytes; 0 on EOF, negative on error. Blocking. */
    virtual ssize_t read(void *buf, std::size_t n) = 0;

    /** All @p n bytes or false. */
    virtual bool writeAll(const void *buf, std::size_t n) = 0;

    bool writeAll(const std::string &s)
    {
        return writeAll(s.data(), s.size());
    }

    /** Tear both directions; unblocks a concurrent read(). Safe to
     *  call from another thread (that is its whole purpose). */
    virtual void shutdown() {}
};

/** Stream over a connected socket fd (owned; closed on destroy).
 *  Writes send with MSG_NOSIGNAL, so a peer that has gone fails
 *  writeAll() instead of raising SIGPIPE. */
class FdStream : public Stream
{
  public:
    explicit FdStream(int fd) : fd_(fd) {}
    ~FdStream() override;

    FdStream(const FdStream &) = delete;
    FdStream &operator=(const FdStream &) = delete;

    ssize_t read(void *buf, std::size_t n) override;
    bool writeAll(const void *buf, std::size_t n) override;
    void shutdown() override;

  private:
    int fd_;
};

/** Bind + accept over an Endpoint. */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind and listen. Fatal on errors (an unreachable coordinator
     *  is never worth a silent single-process fallback). For
     *  tcp:*:0 the kernel picks the port; bound() has the real one.
     *  For unix endpoints a stale socket file is unlinked first. */
    void bind(const Endpoint &ep);

    /** One accepted connection, or nullptr once stop() was called
     *  (or on a non-transient accept error). Blocking. */
    std::unique_ptr<Stream> accept();

    /** Close the listening socket; unblocks accept(). Idempotent.
     *  Unix endpoints also unlink their socket file. */
    void stop();

    /** The endpoint actually bound (tcp port resolved). */
    const Endpoint &bound() const { return ep_; }

  private:
    // Atomic: stop() runs on another thread while accept() blocks.
    std::atomic<int> fd_{-1};
    std::atomic<bool> stopped_{false};
    Endpoint ep_;
};

/**
 * Dial @p ep once. nullptr on failure with the underlying errno
 * string (plus the failing step) in @p error - the caller decides
 * whether to retry, and its final fatal can say what actually went
 * wrong instead of "could not reach".
 */
std::unique_ptr<Stream> connectTo(const Endpoint &ep,
                                  std::string *error);

/** Applied to every (re)connected stream of a FleetClient; tests
 *  install a fault-injecting wrapper here, production leaves it
 *  empty. */
using StreamWrapper = std::function<std::unique_ptr<Stream>(
    std::unique_ptr<Stream>)>;

} // namespace migc

#endif // MIGC_SERVE_TRANSPORT_HH
