#include "storage/file_store.h"

#include <algorithm>

#include "serialize/crc32.h"

namespace mmm {

Status BlobWriteStream::Append(std::span<const uint8_t> bytes) {
  if (closed_) {
    return Status::InvalidArgument("blob ", name_, " is already closed");
  }
  while (!bytes.empty()) {
    if (window_.empty() && bytes.size() >= kWriteWindowBytes) {
      // A whole window in hand is written from the caller's bytes.
      MMM_RETURN_NOT_OK(Write(bytes.first(kWriteWindowBytes)));
      bytes = bytes.subspan(kWriteWindowBytes);
      continue;
    }
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        kWriteWindowBytes - window_.size(), bytes.size()));
    window_.insert(window_.end(), bytes.begin(), bytes.begin() + take);
    bytes = bytes.subspan(take);
    if (window_.size() == kWriteWindowBytes) {
      MMM_RETURN_NOT_OK(Write(window_));
      window_.clear();
    }
  }
  return Status::OK();
}

Status BlobWriteStream::Write(std::span<const uint8_t> bytes) {
  Env* env = store_->env_;
  MMM_RETURN_NOT_OK(env_writes_ == 0 ? env->WriteFile(path_, bytes)
                                     : env->AppendToFile(path_, bytes));
  ++env_writes_;
  written_ += bytes.size();
  crc_ = Crc32::Extend(crc_, bytes);
  return Status::OK();
}

Status BlobWriteStream::Close() {
  if (closed_) {
    return Status::InvalidArgument("blob ", name_, " is already closed");
  }
  if (!window_.empty() || env_writes_ == 0) MMM_RETURN_NOT_OK(Write(window_));
  closed_ = true;
  window_ = {};
  if (detached_) {
    stats_.write_ops = 1;
    stats_.bytes_written = written_;
    cost_nanos_ = store_->latency_.CostNanos(written_);
  } else {
    store_->stats_.AddWrite(written_);
    store_->Charge(written_);
  }
  return Status::OK();
}

FileStore::FileStore(Env* env, std::string root, StoreLatencyModel latency,
                     SimulatedClock* sim_clock)
    : env_(env), root_(std::move(root)), latency_(latency), sim_clock_(sim_clock) {}

Status FileStore::Open() { return env_->CreateDirs(root_); }

Status FileStore::ValidateName(const std::string& name) const {
  if (name.empty()) return Status::InvalidArgument("blob name must not be empty");
  if (name.find('/') != std::string::npos) {
    return Status::InvalidArgument("blob name must not contain '/': ", name);
  }
  return Status::OK();
}

void FileStore::Charge(uint64_t bytes) {
  if (sim_clock_ != nullptr) sim_clock_->Advance(latency_.CostNanos(bytes));
}

Status FileStore::Put(const std::string& name, std::span<const uint8_t> data) {
  MMM_ASSIGN_OR_RETURN(BlobWriteStream stream, OpenWriteStream(name));
  MMM_RETURN_NOT_OK(stream.Append(data));
  return stream.Close();
}

Status FileStore::PutString(const std::string& name, std::string_view data) {
  return Put(name, std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

Result<BlobWriteStream> FileStore::OpenWriteStream(const std::string& name,
                                                   bool detached) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return BlobWriteStream(this, name, root_ + "/" + name, detached);
}

void FileStore::MergeBatch(const StoreStats& delta, uint64_t charge_nanos) {
  stats_.Add(delta);
  if (sim_clock_ != nullptr) sim_clock_->Advance(charge_nanos);
}

Result<std::vector<uint8_t>> FileStore::Get(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, env_->ReadFile(root_ + "/" + name));
  stats_.AddRead(data.size());
  Charge(data.size());
  return data;
}

Result<std::string> FileStore::GetString(const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, Get(name));
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

Result<std::vector<uint8_t>> FileStore::GetRange(const std::string& name,
                                                 uint64_t offset,
                                                 uint64_t length) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                       env_->ReadFileRange(root_ + "/" + name, offset, length));
  stats_.AddRead(data.size());
  Charge(data.size());
  return data;
}

Result<StreamFile> FileStore::OpenStream(const std::string& name,
                                         uint64_t window_bytes) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  const std::string path = root_ + "/" + name;
  MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path));
  // Whole-stream accounting up front; see the cost model in file_store.h.
  stats_.AddRead(size);
  Charge(size);
  return StreamFile(env_, path, 0, size, window_bytes);
}

Result<StreamFile> FileStore::OpenStream(const std::string& name,
                                         uint64_t offset, uint64_t length,
                                         uint64_t window_bytes) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  const std::string path = root_ + "/" + name;
  MMM_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(path));
  // Overflow-safe form of `offset + length > size`.
  if (offset > size || length > size - offset) {
    return Status::OutOfRange("range [", offset, ", +", length, ") of ", path,
                              " exceeds its ", size, " bytes");
  }
  stats_.AddRead(length);
  Charge(length);
  return StreamFile(env_, path, offset, length, window_bytes);
}

Result<uint64_t> FileStore::Size(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return env_->FileSize(root_ + "/" + name);
}

Result<bool> FileStore::Exists(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return env_->FileExists(root_ + "/" + name);
}

Status FileStore::Delete(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return env_->DeleteFile(root_ + "/" + name);
}

Result<std::vector<std::string>> FileStore::List() { return env_->ListDir(root_); }

}  // namespace mmm
