#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <optional>

namespace mmm {

namespace fs = std::filesystem;

namespace {

std::string ErrnoMessage() {
  return std::error_code(errno, std::generic_category()).message();
}

/// Owns a file descriptor (negative when the open failed) and closes it.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

/// Env backed by the host filesystem: writes via stdio, reads via a raw
/// descriptor (open + fstat + pread), metadata via <filesystem>.
class PosixEnv : public Env {
 public:
  Status WriteFile(const std::string& path, std::span<const uint8_t> data) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return Status::IOError("cannot open for write: ", path);
    }
    size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), file);
    int close_rc = std::fclose(file);
    if (written != data.size() || close_rc != 0) {
      return Status::IOError("short write to ", path);
    }
    return Status::OK();
  }

  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    std::FILE* file = std::fopen(path.c_str(), "ab");
    if (file == nullptr) {
      return Status::IOError("cannot open for append: ", path);
    }
    size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), file);
    int close_rc = std::fclose(file);
    if (written != data.size() || close_rc != 0) {
      return Status::IOError("short append to ", path);
    }
    return Status::OK();
  }

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    return ReadAt(path, 0, std::nullopt);
  }

  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    return ReadAt(path, offset, length);
  }

  Result<bool> FileExists(const std::string& path) override {
    std::error_code ec;
    bool exists = fs::exists(path, ec);
    if (ec) return Status::IOError("exists(", path, "): ", ec.message());
    return exists;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound("file_size(", path, "): ", ec.message());
    }
    if (ec) return Status::IOError("file_size(", path, "): ", ec.message());
    return size;
  }

  Status DeleteFile(const std::string& path) override {
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) return Status::IOError("remove(", path, "): ", ec.message());
    return Status::OK();
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) return Status::IOError("create_directories(", path, "): ", ec.message());
    return Status::OK();
  }

  Status RemoveDirs(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) return Status::IOError("remove_all(", path, "): ", ec.message());
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError("list(", path, "): ", ec.message());
    std::sort(names.begin(), names.end());
    return names;
  }

 private:
  /// Reads `[offset, offset + length)` of `path`, or from `offset` to the
  /// end when `length` is unset, with one open, one fstat and a pread loop
  /// on a raw descriptor (no stdio buffer, no seeks).
  static Result<std::vector<uint8_t>> ReadAt(const std::string& path,
                                             uint64_t offset,
                                             std::optional<uint64_t> length) {
    const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0) return Status::NotFound("cannot open for read: ", path);
    struct stat st{};
    if (::fstat(fd.get(), &st) != 0) {
      return Status::IOError("fstat(", path, "): ", ErrnoMessage());
    }
    if (!S_ISREG(st.st_mode)) {
      return Status::IOError("not a regular file: ", path);
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    // Overflow-safe form of `offset + length > size` (the sum can wrap in
    // uint64); see the ReadFileRange contract in env.h.
    if (offset > size || (length.has_value() && *length > size - offset)) {
      return Status::OutOfRange("range [", offset, ", +", length.value_or(0),
                                ") past end of ", path);
    }
    std::vector<uint8_t> data(length.value_or(size - offset));
    size_t done = 0;
    while (done < data.size()) {
      const ssize_t got =
          ::pread(fd.get(), data.data() + done, data.size() - done,
                  static_cast<off_t>(offset + done));
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) {
        return Status::IOError("read(", path, "): ", ErrnoMessage());
      }
      if (got == 0) {
        return Status::IOError("short read from ", path, ": ", done, " of ",
                               data.size(), " bytes");
      }
      done += static_cast<size_t>(got);
    }
    return data;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

// ---------------------------------------------------------------------------
// InMemoryEnv

Status InMemoryEnv::WriteFile(const std::string& path,
                              std::span<const uint8_t> data) {
  MutexLock lock(mu_);
  for (auto& [name, contents] : files_) {
    if (name == path) {
      contents.assign(data.begin(), data.end());
      return Status::OK();
    }
  }
  files_.emplace_back(path, std::vector<uint8_t>(data.begin(), data.end()));
  return Status::OK();
}

Status InMemoryEnv::AppendToFile(const std::string& path,
                                 std::span<const uint8_t> data) {
  MutexLock lock(mu_);
  for (auto& [name, contents] : files_) {
    if (name == path) {
      contents.insert(contents.end(), data.begin(), data.end());
      return Status::OK();
    }
  }
  files_.emplace_back(path, std::vector<uint8_t>(data.begin(), data.end()));
  return Status::OK();
}

Result<std::vector<uint8_t>> InMemoryEnv::ReadFile(const std::string& path) {
  MutexLock lock(mu_);
  for (const auto& [name, contents] : files_) {
    if (name == path) return contents;
  }
  return Status::NotFound("in-memory env: no file ", path);
}

Result<std::vector<uint8_t>> InMemoryEnv::ReadFileRange(const std::string& path,
                                                        uint64_t offset,
                                                        uint64_t length) {
  MutexLock lock(mu_);
  for (const auto& [name, contents] : files_) {
    if (name != path) continue;
    // Overflow-safe form of `offset + length > size`; see env.h.
    if (offset > contents.size() || length > contents.size() - offset) {
      return Status::OutOfRange("range [", offset, ", +", length,
                                ") past end of ", path);
    }
    return std::vector<uint8_t>(contents.begin() + offset,
                                contents.begin() + offset + length);
  }
  return Status::NotFound("in-memory env: no file ", path);
}

Result<bool> InMemoryEnv::FileExists(const std::string& path) {
  MutexLock lock(mu_);
  for (const auto& [name, _] : files_) {
    if (name == path) return true;
  }
  return false;
}

Result<uint64_t> InMemoryEnv::FileSize(const std::string& path) {
  MutexLock lock(mu_);
  for (const auto& [name, contents] : files_) {
    if (name == path) return static_cast<uint64_t>(contents.size());
  }
  return Status::NotFound("in-memory env: no file ", path);
}

Status InMemoryEnv::DeleteFile(const std::string& path) {
  MutexLock lock(mu_);
  for (auto it = files_.begin(); it != files_.end(); ++it) {
    if (it->first == path) {
      files_.erase(it);
      return Status::OK();
    }
  }
  return Status::OK();
}

Status InMemoryEnv::CreateDirs(const std::string&) { return Status::OK(); }

Status InMemoryEnv::RemoveDirs(const std::string& path) {
  MutexLock lock(mu_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::erase_if(files_, [&](const auto& entry) {
    return entry.first.rfind(prefix, 0) == 0;
  });
  return Status::OK();
}

Result<std::vector<std::string>> InMemoryEnv::ListDir(const std::string& path) {
  MutexLock lock(mu_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::vector<std::string> names;
  for (const auto& [name, _] : files_) {
    if (name.rfind(prefix, 0) == 0) {
      std::string rest = name.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.push_back(rest);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Write-order tagging

namespace {
// The active tag of this thread, published by ScopedWriteOrderTag, and the
// writes FaultInjectionEnv has numbered under it. One level is enough: a
// batch wraps exactly the env writes of one staged blob.
thread_local WriteOrderGroup* tls_write_order_group = nullptr;
thread_local size_t tls_write_order_index = 0;
thread_local int64_t tls_write_order_writes = 0;
}  // namespace

void WriteOrderGroup::Finish(size_t member, int64_t writes) {
  {
    MutexLock lock(mu_);
    writes_[member] = writes;
  }
  finished_.NotifyAll();
}

ScopedWriteOrderTag::ScopedWriteOrderTag(WriteOrderGroup* group,
                                         size_t index) {
  tls_write_order_group = group;
  tls_write_order_index = index;
  tls_write_order_writes = 0;
}

ScopedWriteOrderTag::~ScopedWriteOrderTag() {
  tls_write_order_group->Finish(tls_write_order_index, tls_write_order_writes);
  tls_write_order_group = nullptr;
  tls_write_order_index = 0;
  tls_write_order_writes = 0;
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv

Status FaultInjectionEnv::MaybeFail() {
  int64_t index = -1;
  int64_t fail_after;
  {
    MutexLock lock(mu_);
    fail_after = fail_after_;
    // Without a plan no write fails, so arrival order numbers them as well
    // as any; only the count matters.
    if (tls_write_order_group == nullptr || fail_after < 0) {
      index = next_index_++;
    }
  }
  if (index < 0) {
    WriteOrderGroup* group = tls_write_order_group;
    const size_t member = tls_write_order_index;
    MutexLock group_lock(group->mu_);
    if (group->base_ < 0) {
      MutexLock lock(mu_);
      group->base_ = next_index_;
    }
    int64_t before = 0;
    for (size_t j = 0; j < member; ++j) {
      while (group->writes_[j] < 0) group->finished_.Wait(group->mu_);
      before += group->writes_[j];
    }
    index = group->base_ + before + tls_write_order_writes;
    MutexLock lock(mu_);
    next_index_ = std::max(next_index_, index + 1);
  }
  if (tls_write_order_group != nullptr) ++tls_write_order_writes;
  if (fail_after >= 0 && index >= fail_after) {
    return Status::IOError("injected write failure (write #", index, ")");
  }
  return Status::OK();
}

Status FaultInjectionEnv::CheckPath(const std::string& path) const {
  MutexLock lock(mu_);
  for (const std::string& prefix : dead_prefixes_) {
    if (path.rfind(prefix, 0) == 0) {
      return Status::IOError("injected shard failure: ", path,
                             " is under dead prefix ", prefix);
    }
  }
  return Status::OK();
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    std::span<const uint8_t> data) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  MMM_RETURN_NOT_OK(MaybeFail());
  return base_->WriteFile(path, data);
}

Status FaultInjectionEnv::AppendToFile(const std::string& path,
                                       std::span<const uint8_t> data) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  MMM_RETURN_NOT_OK(MaybeFail());
  return base_->AppendToFile(path, data);
}

Result<std::vector<uint8_t>> FaultInjectionEnv::ReadFile(const std::string& path) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  return base_->ReadFile(path);
}

Result<std::vector<uint8_t>> FaultInjectionEnv::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  return base_->ReadFileRange(path, offset, length);
}

Result<bool> FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  return base_->DeleteFile(path);
}

Status FaultInjectionEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}

Status FaultInjectionEnv::RemoveDirs(const std::string& path) {
  return base_->RemoveDirs(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(const std::string& path) {
  return base_->ListDir(path);
}

}  // namespace mmm
