#include "serve/transport.hh"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "sim/logging.hh"

namespace migc
{

// ---------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------

std::string
Endpoint::spec() const
{
    if (kind == Kind::tcp)
        return csprintf("tcp:%s:%u", host.c_str(),
                        static_cast<unsigned>(port));
    return "unix:" + path;
}

Endpoint
parseEndpoint(const std::string &spec)
{
    Endpoint ep;
    fatal_if(spec.empty(), "empty transport endpoint (want "
                           "unix:<path> or tcp:<host>:<port>)");
    if (spec.rfind("unix:", 0) == 0) {
        ep.path = spec.substr(5);
        fatal_if(ep.path.empty(),
                 "endpoint '%s': unix: needs a socket path",
                 spec.c_str());
        return ep;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        const std::size_t colon = rest.rfind(':');
        fatal_if(colon == std::string::npos || colon == 0 ||
                     colon + 1 == rest.size(),
                 "endpoint '%s': tcp: wants tcp:<host>:<port>",
                 spec.c_str());
        ep.kind = Endpoint::Kind::tcp;
        ep.host = rest.substr(0, colon);
        const std::string port = rest.substr(colon + 1);
        std::uint64_t p = 0;
        for (char c : port) {
            fatal_if(c < '0' || c > '9',
                     "endpoint '%s': port '%s' is not a number",
                     spec.c_str(), port.c_str());
            p = p * 10 + static_cast<std::uint64_t>(c - '0');
            fatal_if(p > 65535,
                     "endpoint '%s': port %s out of range [0, 65535]",
                     spec.c_str(), port.c_str());
        }
        ep.port = static_cast<std::uint16_t>(p);
        return ep;
    }
    // No scheme: a bare AF_UNIX path, so pre-TCP command lines and
    // tests keep working unchanged.
    ep.path = spec;
    return ep;
}

// ---------------------------------------------------------------------
// FdStream
// ---------------------------------------------------------------------

FdStream::~FdStream()
{
    if (fd_ >= 0)
        ::close(fd_);
}

ssize_t
FdStream::read(void *buf, std::size_t n)
{
    for (;;) {
        ssize_t r = ::read(fd_, buf, n);
        if (r < 0 && errno == EINTR)
            continue;
        return r;
    }
}

bool
FdStream::writeAll(const void *buf, std::size_t n)
{
    // send(MSG_NOSIGNAL), not write(): a peer that has gone must
    // fail this call (EPIPE), not kill the process with SIGPIPE.
    const char *p = static_cast<const char *>(buf);
    std::size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        off += static_cast<std::size_t>(w);
    }
    return true;
}

void
FdStream::shutdown()
{
    ::shutdown(fd_, SHUT_RDWR);
}

// ---------------------------------------------------------------------
// Listener / connectTo
// ---------------------------------------------------------------------

namespace
{

void
fillUnixAddr(const std::string &path, sockaddr_un &addr)
{
    addr = sockaddr_un{};
    addr.sun_family = AF_UNIX;
    fatal_if(path.size() >= sizeof(addr.sun_path),
             "unix socket path too long (%zu bytes, max %zu): %s",
             path.size(), sizeof(addr.sun_path) - 1, path.c_str());
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
}

/** getaddrinfo over the endpoint's host/port; fatal on failure for
 *  the bind path, error-string for the connect path. */
addrinfo *
resolveTcp(const Endpoint &ep, bool passive, std::string *error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    if (passive)
        hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    const std::string port = std::to_string(ep.port);
    int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints,
                           &res);
    if (rc != 0) {
        if (error != nullptr) {
            *error = csprintf("resolve %s: %s", ep.host.c_str(),
                              ::gai_strerror(rc));
        }
        return nullptr;
    }
    return res;
}

void
setNoDelay(int fd)
{
    // Every protocol exchange is one small line each way; Nagle
    // would serialize the fleet on 40 ms ACK-delay stalls.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

Listener::~Listener()
{
    stop();
}

void
Listener::bind(const Endpoint &ep)
{
    ep_ = ep;
    if (ep.kind == Endpoint::Kind::unix_) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        fatal_if(fd_ < 0, "socket(AF_UNIX): %s",
                 std::strerror(errno));
        sockaddr_un addr;
        fillUnixAddr(ep.path, addr);
        ::unlink(ep.path.c_str()); // stale socket from a prior run
        fatal_if(::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) != 0,
                 "bind(%s): %s", ep.path.c_str(),
                 std::strerror(errno));
    } else {
        std::string err;
        addrinfo *res = resolveTcp(ep, true, &err);
        fatal_if(res == nullptr, "%s", err.c_str());
        int last_errno = 0;
        for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
            int fd = ::socket(ai->ai_family, ai->ai_socktype,
                              ai->ai_protocol);
            if (fd < 0) {
                last_errno = errno;
                continue;
            }
            // Coordinator restarts must not wait out TIME_WAIT.
            int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
                fd_ = fd;
                break;
            }
            last_errno = errno;
            ::close(fd);
        }
        ::freeaddrinfo(res);
        fatal_if(fd_ < 0, "bind(%s): %s", ep.spec().c_str(),
                 std::strerror(last_errno));
        // Port 0 asked the kernel to pick: report the real port so
        // workers (and tests) can be pointed at it.
        sockaddr_storage ss{};
        socklen_t slen = sizeof(ss);
        if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&ss),
                          &slen) == 0) {
            if (ss.ss_family == AF_INET) {
                ep_.port = ntohs(
                    reinterpret_cast<sockaddr_in *>(&ss)->sin_port);
            } else if (ss.ss_family == AF_INET6) {
                ep_.port = ntohs(
                    reinterpret_cast<sockaddr_in6 *>(&ss)
                        ->sin6_port);
            }
        }
    }
    fatal_if(::listen(fd_, 64) != 0, "listen(%s): %s",
             ep_.spec().c_str(), std::strerror(errno));
}

std::unique_ptr<Stream>
Listener::accept()
{
    for (;;) {
        int fd = ::accept(fd_.load(), nullptr, nullptr);
        if (fd < 0) {
            if (stopped_.load())
                return nullptr;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return nullptr;
        }
        if (ep_.kind == Endpoint::Kind::tcp)
            setNoDelay(fd);
        return std::make_unique<FdStream>(fd);
    }
}

void
Listener::stop()
{
    if (stopped_.exchange(true))
        return;
    const int fd = fd_.exchange(-1);
    if (fd >= 0) {
        // shutdown() alone does not unblock accept() on all kernels;
        // close() does, and accept() treats the error as the stop
        // signal.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    if (ep_.kind == Endpoint::Kind::unix_ && !ep_.path.empty())
        ::unlink(ep_.path.c_str());
}

std::unique_ptr<Stream>
connectTo(const Endpoint &ep, std::string *error)
{
    if (ep.kind == Endpoint::Kind::unix_) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            if (error != nullptr) {
                *error = csprintf("socket(AF_UNIX): %s",
                                  std::strerror(errno));
            }
            return nullptr;
        }
        sockaddr_un addr;
        fillUnixAddr(ep.path, addr);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            if (error != nullptr) {
                *error = csprintf("connect(%s): %s", ep.path.c_str(),
                                  std::strerror(errno));
            }
            ::close(fd);
            return nullptr;
        }
        return std::make_unique<FdStream>(fd);
    }

    addrinfo *res = resolveTcp(ep, false, error);
    if (res == nullptr)
        return nullptr;
    int last_errno = 0;
    int fd = -1;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        int s = ::socket(ai->ai_family, ai->ai_socktype,
                         ai->ai_protocol);
        if (s < 0) {
            last_errno = errno;
            continue;
        }
        if (::connect(s, ai->ai_addr, ai->ai_addrlen) == 0) {
            fd = s;
            break;
        }
        last_errno = errno;
        ::close(s);
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        if (error != nullptr) {
            *error = csprintf("connect(%s): %s", ep.spec().c_str(),
                              std::strerror(last_errno));
        }
        return nullptr;
    }
    setNoDelay(fd);
    return std::make_unique<FdStream>(fd);
}

} // namespace migc
