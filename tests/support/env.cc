#include "support/env.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include <unistd.h>

namespace migc::test
{

namespace
{

/** This process's id, fixed before any test forks. */
const std::string kRunTag = std::to_string(::getpid());

} // namespace

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_" + kRunTag + "_" + leaf;
}

TempFile::TempFile(const std::string &leaf) : path_(tempPath(leaf))
{
    std::remove(path_.c_str());
}

TempFile::~TempFile()
{
    std::remove(path_.c_str());
}

ScopedEnv::ScopedEnv(const char *name, const char *value) : name_(name)
{
    const char *old = std::getenv(name);
    hadOld_ = old != nullptr;
    if (hadOld_)
        old_ = old;
    if (value)
        ::setenv(name, value, 1);
    else
        ::unsetenv(name);
}

ScopedEnv::~ScopedEnv()
{
    if (hadOld_)
        ::setenv(name_.c_str(), old_.c_str(), 1);
    else
        ::unsetenv(name_.c_str());
}

} // namespace migc::test
