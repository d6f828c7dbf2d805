#include "service/response_cache.h"

namespace ecrint::service {

std::string ResponseCache::Key(std::string_view verb,
                               const std::vector<std::string>& args) {
  // Length-prefix every arg so the encoding is injective even for raw
  // binary args that may themselves contain the separator byte.
  std::string key(verb);
  for (const std::string& arg : args) {
    key += '\x01';
    key += std::to_string(arg.size());
    key += ':';
    key += arg;
  }
  return key;
}

bool ResponseCache::Valid(const Entry& entry,
                          const EngineSnapshot& snapshot) const {
  if (entry.catalog.lock().get() != snapshot.catalog.get()) return false;
  if (entry.had_equivalence != (snapshot.equivalence != nullptr)) {
    return false;
  }
  if (entry.had_equivalence &&
      entry.equivalence.lock().get() != snapshot.equivalence.get()) {
    return false;
  }
  if (entry.had_integration != (snapshot.integration != nullptr)) {
    return false;
  }
  if (entry.had_integration &&
      entry.integration.lock().get() != snapshot.integration.get()) {
    return false;
  }
  return true;
}

void ResponseCache::Touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_position);
}

std::optional<ServiceResponse> ResponseCache::Lookup(
    const std::string& key, const EngineSnapshot& snapshot,
    std::string* wire, int protocol_version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  if (!Valid(it->second, snapshot)) {
    lru_.erase(it->second.lru_position);
    entries_.erase(it);
    return std::nullopt;
  }
  Entry& entry = it->second;
  Touch(entry);
  if (wire == nullptr) return entry.response;
  std::string& frame = protocol_version == kProtocolBinaryVersion
                           ? entry.wire_binary
                           : entry.wire_text;
  if (frame.empty()) frame = EncodeReply(entry.response, protocol_version);
  *wire = frame;
  return ServiceResponse{};
}

void ResponseCache::Insert(const std::string& key,
                           const EngineSnapshot& snapshot,
                           const ServiceResponse& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxEntries) {
      // Evict the least recently used entry; a recently-hit key survives.
      entries_.erase(lru_.back());
      lru_.pop_back();
      if (evictions_ != nullptr) evictions_->Increment();
    }
    lru_.push_front(key);
    it = entries_.emplace(key, Entry{}).first;
    it->second.lru_position = lru_.begin();
  } else {
    Touch(it->second);
  }
  Entry& entry = it->second;
  entry.catalog = snapshot.catalog;
  entry.equivalence = snapshot.equivalence;
  entry.integration = snapshot.integration;
  entry.had_equivalence = snapshot.equivalence != nullptr;
  entry.had_integration = snapshot.integration != nullptr;
  entry.response = response;
  entry.wire_text.clear();
  entry.wire_binary.clear();
}

size_t ResponseCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ResponseCache::SetEvictionCounter(Counter* evictions) {
  std::lock_guard<std::mutex> lock(mutex_);
  evictions_ = evictions;
}

}  // namespace ecrint::service
