#include "support/cache_file.hh"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/cache_v4.hh"

namespace migc::test
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::size_t
v4SegmentCount(const std::string &path)
{
    const std::string bytes = readFile(path);
    // 8-byte aligned backing store so segment casts are safe.
    std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0);
    char *buf = reinterpret_cast<char *>(words.data());
    bytes.copy(buf, bytes.size());

    std::size_t n = 0, off = 0;
    while (off < bytes.size()) {
        V4SegmentView seg;
        if (!parseV4Segment(buf + off, bytes.size() - off, seg, nullptr))
            break;
        ++n;
        off += seg.bytes;
    }
    return n;
}

} // namespace migc::test
