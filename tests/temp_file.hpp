#pragma once

// A test's temporary file: a path under ::testing::TempDir() that carries
// the process id, so two test binaries (a sanitizer build next to a normal
// one) can run the same test at once without sharing the file. The file
// is removed when the TempFile is made and again when it goes away, also
// when an assertion ends the test early.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

namespace fastfit::testing_support {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "fastfit_" + std::to_string(::getpid()) +
              "_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }

  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const noexcept { return path_; }
  const char* c_str() const noexcept { return path_.c_str(); }
  operator const std::string&() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace fastfit::testing_support
