#include "core/job_source.hpp"

#include <cctype>
#include <fstream>
#include <istream>

#include "util/error.hpp"
#include "util/shell.hpp"

namespace parcl::core {

std::optional<std::string> VectorValueSource::next() {
  if (index_ >= values_.size()) return std::nullopt;
  return std::move(values_[index_++]);
}

LineSource::LineSource(std::istream& in, char sep) : in_(&in), sep_(sep) {}

LineSource::LineSource(std::unique_ptr<std::istream> owned, char sep)
    : owned_(std::move(owned)), in_(owned_.get()), sep_(sep) {}

std::unique_ptr<LineSource> LineSource::open(const std::string& path, char sep) {
  auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*in) throw util::SystemError("open '" + path + "'", errno);
  return std::unique_ptr<LineSource>(new LineSource(std::move(in), sep));
}

std::optional<std::string> LineSource::next() {
  std::string value;
  if (!std::getline(*in_, value, sep_)) return std::nullopt;
  return value;
}

std::optional<JobInput> CartesianSource::next() {
  if (done_) return std::nullopt;
  if (!primed_) {
    primed_ = true;
    if (sources_.empty()) {
      done_ = true;
      return std::nullopt;
    }
    // Tail sources repeat once per head value, so they must be buffered;
    // the head source streams and is never held beyond one value.
    for (std::size_t s = 1; s < sources_.size(); ++s) {
      std::vector<std::string> values;
      while (auto value = sources_[s]->next()) values.push_back(std::move(*value));
      if (values.empty()) {
        done_ = true;
        return std::nullopt;
      }
      tails_.push_back(std::move(values));
    }
    auto head = sources_[0]->next();
    if (!head) {
      done_ = true;
      return std::nullopt;
    }
    head_value_ = std::move(*head);
    index_.assign(tails_.size(), 0);
  }

  JobInput job;
  job.args.reserve(1 + tails_.size());
  job.args.push_back(head_value_);
  for (std::size_t t = 0; t < tails_.size(); ++t) {
    job.args.push_back(tails_[t][index_[t]]);
  }

  // Advance the odometer (last source varies fastest); a full wrap means
  // this head value is spent, so pull the next one.
  bool wrapped = true;
  for (std::size_t pos = tails_.size(); pos-- > 0;) {
    if (++index_[pos] < tails_[pos].size()) {
      wrapped = false;
      break;
    }
    index_[pos] = 0;
  }
  if (wrapped) {
    auto head = sources_[0]->next();
    if (head) {
      head_value_ = std::move(*head);
    } else {
      done_ = true;
    }
  }
  return job;
}

std::optional<JobInput> LinkedSource::next() {
  if (done_ || sources_.empty()) {
    done_ = true;
    return std::nullopt;
  }
  JobInput job;
  job.args.resize(sources_.size());
  bool any_fresh = false;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (!exhausted_[s]) {
      if (auto value = sources_[s]->next()) {
        seen_[s].push_back(*value);
        job.args[s] = std::move(*value);
        any_fresh = true;
        continue;
      }
      exhausted_[s] = true;
    }
    if (seen_[s].empty()) {
      // An empty source empties the whole zip (combine_linked semantics).
      done_ = true;
      return std::nullopt;
    }
    job.args[s] = seen_[s][row_ % seen_[s].size()];
  }
  if (!any_fresh) {
    // Every source is recycling: the longest one is exhausted, we are done.
    done_ = true;
    return std::nullopt;
  }
  ++row_;
  return job;
}

std::optional<JobInput> VectorSource::next() {
  if (index_ >= inputs_.size()) return std::nullopt;
  JobInput job;
  job.args = std::move(inputs_[index_++]);
  return job;
}

std::optional<JobInput> BlockVectorSource::next() {
  if (index_ >= blocks_.size()) return std::nullopt;
  JobInput job;
  job.stdin_data = std::move(blocks_[index_++]);
  job.has_stdin = true;
  return job;
}

std::optional<JobInput> CountSource::next() {
  if (remaining_ == 0) return std::nullopt;
  --remaining_;
  return JobInput{};
}

TrimSource::TrimSource(JobSource& upstream, const std::string& mode)
    : upstream_(upstream),
      left_(mode.find('l') != std::string::npos),
      right_(mode.find('r') != std::string::npos) {}

std::optional<JobInput> TrimSource::next() {
  auto job = upstream_.next();
  if (!job || (!left_ && !right_)) return job;
  for (std::string& value : job->args) {
    std::size_t begin = 0, end = value.size();
    if (left_) {
      while (begin < end && std::isspace(static_cast<unsigned char>(value[begin])))
        ++begin;
    }
    if (right_) {
      while (end > begin && std::isspace(static_cast<unsigned char>(value[end - 1])))
        --end;
    }
    value = value.substr(begin, end - begin);
  }
  return job;
}

std::optional<JobInput> ColsepSource::next() {
  auto job = upstream_.next();
  if (!job) return std::nullopt;
  if (job->args.size() != 1) {
    throw util::ConfigError("--colsep requires a single input source");
  }
  ArgVector columns;
  const std::string& line = job->args[0];
  std::size_t start = 0;
  while (true) {
    std::size_t pos = line.find(colsep_, start);
    if (pos == std::string::npos) {
      columns.push_back(line.substr(start));
      break;
    }
    columns.push_back(line.substr(start, pos - start));
    start = pos + colsep_.size();
  }
  job->args = std::move(columns);
  return job;
}

std::optional<JobInput> MaxArgsPacker::next() {
  if (max_args_ <= 1) return upstream_.next();
  JobInput packed;
  while (packed.args.size() < max_args_) {
    auto job = upstream_.next();
    if (!job) break;
    if (job->args.size() != 1) {
      throw util::ConfigError("-n/-X packing requires a single input source");
    }
    packed.args.push_back(std::move(job->args[0]));
  }
  if (packed.args.empty()) return std::nullopt;
  return packed;
}

std::optional<JobInput> MaxCharsPacker::next() {
  JobInput packed;
  std::size_t chars = base_chars_;
  if (carry_) {
    chars += carry_->second;
    packed.args.push_back(std::move(carry_->first));
    carry_.reset();
  }
  while (true) {
    auto job = upstream_.next();
    if (!job) break;
    if (job->args.size() != 1) {
      throw util::ConfigError("-n/-X packing requires a single input source");
    }
    std::size_t cost = util::shell_quote(job->args[0]).size() + 1;  // +1 separator
    if (!packed.args.empty() && chars + cost > max_chars_) {
      carry_.emplace(std::move(job->args[0]), cost);
      break;
    }
    packed.args.push_back(std::move(job->args[0]));
    chars += cost;
  }
  if (packed.args.empty()) return std::nullopt;
  return packed;
}

PrefetchSource::PrefetchSource(JobSource& upstream, std::size_t capacity)
    : upstream_(upstream), queue_(capacity < 1 ? 1 : capacity) {
  thread_ = std::thread([this] {
    try {
      while (auto job = upstream_.next()) {
        if (!queue_.push(std::move(*job))) return;  // closed by the destructor
      }
    } catch (...) {
      error_ = std::current_exception();
    }
    queue_.close();
  });
}

PrefetchSource::~PrefetchSource() {
  queue_.close();
  thread_.join();
}

std::optional<JobInput> PrefetchSource::next() {
  std::optional<JobInput> job = queue_.pop();
  if (!job && error_) std::rethrow_exception(error_);
  return job;
}

}  // namespace parcl::core
