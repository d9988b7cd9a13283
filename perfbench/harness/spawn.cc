/**
 * @file
 * perfbench_spawn: run a command and report its resource usage.
 *
 *   perfbench_spawn USAGE_FILE PROGRAM [ARGS...]
 *
 * Forks, execs PROGRAM with ARGS and waits for it. Then writes one
 * line, "maxrss_kib utime_s stime_s", for it and the descendants it
 * waited for, to USAGE_FILE, and exits with its exit status (128 +
 * the signal if a signal ended it).
 *
 * A child's ru_maxrss keeps, across exec, the peak resident set of
 * the address space it was forked from. A command started straight
 * from the Python runner therefore reports at least the runner's own
 * peak. This launcher's address space is a small fraction of the
 * commands it runs, so the peak it reports is theirs.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace
{

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: perfbench_spawn USAGE_FILE PROGRAM [ARGS...]\n");
        return 2;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("perfbench_spawn: fork");
        return 2;
    }
    if (pid == 0) {
        ::execvp(argv[2], argv + 2);
        std::perror(argv[2]);
        ::_exit(127);
    }
    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            std::perror("perfbench_spawn: wait4");
            return 2;
        }
    }
    std::FILE *f = std::fopen(argv[1], "w");
    if (f == nullptr) {
        std::perror(argv[1]);
        return 2;
    }
    std::fprintf(f, "%ld %.6f %.6f\n", ru.ru_maxrss, seconds(ru.ru_utime),
                 seconds(ru.ru_stime));
    if (std::fclose(f) != 0) {
        std::perror(argv[1]);
        return 2;
    }
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}
