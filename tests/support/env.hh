/**
 * @file
 * Scratch paths and environment variables for the test suites, kept
 * private to one test process (paths) and one scope (variables).
 */

#ifndef MIGC_TESTS_SUPPORT_ENV_HH
#define MIGC_TESTS_SUPPORT_ENV_HH

#include <string>

namespace migc::test
{

/**
 * A file or socket path private to this test process:
 * `<gtest TempDir>migc_<pid>_<leaf>`. The pid is taken once, at
 * static initialization, so a forked child names the same files as
 * its parent, and two copies of a suite running at once never share
 * a cache or a socket.
 */
std::string tempPath(const std::string &leaf);

/**
 * tempPath(@p leaf), removed when the guard is made and again when
 * its scope ends - on every exit path, an ASSERT_* that returns early
 * included - so a failing test leaves no file behind.
 */
class TempFile
{
  public:
    explicit TempFile(const std::string &leaf);
    ~TempFile();

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Set (or, with nullptr, unset) an environment variable until the
 *  end of the scope, then restore it, so tests cannot leak state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value);
    ~ScopedEnv();

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

} // namespace migc::test

#endif // MIGC_TESTS_SUPPORT_ENV_HH
