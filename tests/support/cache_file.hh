/**
 * @file
 * Reading, writing and inspecting cache files from the test suites.
 */

#ifndef MIGC_TESTS_SUPPORT_CACHE_FILE_HH
#define MIGC_TESTS_SUPPORT_CACHE_FILE_HH

#include <cstddef>
#include <string>

namespace migc::test
{

/** The whole of @p path's bytes; empty when it cannot be read. */
std::string readFile(const std::string &path);

/** Replace @p path's contents with @p bytes. */
void writeFile(const std::string &path, const std::string &bytes);

/** v4 segments parseable from the front of @p path, stopping at the
 *  first damaged one; 0 for a missing or non-v4 file. */
std::size_t v4SegmentCount(const std::string &path);

} // namespace migc::test

#endif // MIGC_TESTS_SUPPORT_CACHE_FILE_HH
