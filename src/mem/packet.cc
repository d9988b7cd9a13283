#include "mem/packet.hh"

namespace migc
{

namespace
{

const char *
cmdName(MemCmd cmd)
{
    switch (cmd) {
      case MemCmd::ReadReq: return "ReadReq";
      case MemCmd::ReadResp: return "ReadResp";
      case MemCmd::WriteReq: return "WriteReq";
      case MemCmd::WriteResp: return "WriteResp";
      case MemCmd::WritebackDirty: return "WritebackDirty";
      case MemCmd::WritebackResp: return "WritebackResp";
    }
    return "?";
}

} // namespace

std::string
Packet::print() const
{
    return csprintf("[pkt %llu %s addr=%#llx size=%u pc=%#llx flags=%#x]",
                    static_cast<unsigned long long>(id), cmdName(cmd),
                    static_cast<unsigned long long>(addr),
                    static_cast<unsigned>(size),
                    static_cast<unsigned long long>(pc), flags);
}

} // namespace migc
