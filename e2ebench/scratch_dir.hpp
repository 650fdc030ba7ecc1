// A process-private directory for the validator's node stores.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace e2e {

/// A fresh directory under `root` for one process's node stores; it and
/// everything in it is removed when the object goes away.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& root)
      : path_(std::filesystem::path(root) /
              ("e2ebench-db-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// An empty directory for chain run `run`'s node store.
  std::string fresh(std::size_t run) const {
    const auto dir = path_ / ("chain-" + std::to_string(run));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  }
  void drop(std::size_t run) const {
    std::error_code ec;
    std::filesystem::remove_all(path_ / ("chain-" + std::to_string(run)), ec);
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace e2e
