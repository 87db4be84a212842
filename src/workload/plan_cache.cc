#include "workload/plan_cache.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "xpath/parser.h"
#include "xpath/rewrite.h"

namespace xptc {

namespace {

std::string NormaliseText(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t PlanCache::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<std::string>()(key.text);
  return HashCombine(h, reinterpret_cast<size_t>(key.alphabet));
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  XPTC_CHECK_GT(capacity, 0u);
  collector_ = obs::Registry::Default().AddCollector([this](
      obs::Snapshot* snap) {
    snap->AddCounter("plan_cache.hits", hits_.value());
    snap->AddCounter("plan_cache.misses", misses_.value());
    snap->AddCounter("plan_cache.evictions", evictions_.value());
    snap->AddCounter("plan_cache.program_hits", program_hits_.value());
    snap->AddCounter("plan_cache.program_misses", program_misses_.value());
    snap->AddCounter("plan_cache.lowering_ns", lowering_ns_.value());
  });
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = static_cast<size_t>(hits_.value());
  stats.misses = static_cast<size_t>(misses_.value());
  stats.evictions = static_cast<size_t>(evictions_.value());
  stats.program_hits = static_cast<size_t>(program_hits_.value());
  stats.program_misses = static_cast<size_t>(program_misses_.value());
  stats.lowering_seconds = static_cast<double>(lowering_ns_.value()) * 1e-9;
  return stats;
}

void PlanCache::Purge(const Alphabet* alphabet) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.alphabet == alphabet) {
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  programs_.erase(alphabet);
}

size_t PlanCache::program_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [alphabet, index] : programs_) count += index.slots.size();
  return count;
}

PlanCache::LruList::iterator PlanCache::Touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
  return lru_.begin();
}

void PlanCache::InsertLocked(Entry entry) {
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.Inc();
  }
}

std::shared_ptr<const exec::Program> PlanCache::FindProgramLocked(
    const Alphabet* alphabet, const NodePtr& plan, size_t hash) {
  auto per_alphabet = programs_.find(alphabet);
  if (per_alphabet == programs_.end()) return nullptr;
  auto [it, end] = per_alphabet->second.slots.equal_range(hash);
  for (; it != end; ++it) {
    std::shared_ptr<const exec::Program> program = it->second.lock();
    if (program == nullptr) continue;
    const NodePtr& compiled = program->plan();
    if (compiled == plan || NodeEquals(*compiled, *plan)) return program;
  }
  return nullptr;
}

void PlanCache::InsertProgramLocked(
    const Alphabet* alphabet, size_t hash,
    const std::shared_ptr<const exec::Program>& program) {
  ProgramIndex& index =
      programs_.try_emplace(alphabet, ProgramIndex{{}, 2 * capacity_})
          .first->second;
  auto [it, end] = index.slots.equal_range(hash);
  for (; it != end; ++it) {
    if (it->second.expired()) {
      it->second = program;
      return;
    }
  }
  // Lazy sweep. The LRU holds at most `capacity` programs, so a sweep at
  // twice the capacity frees at least a quarter of the index unless
  // callers hold many programs past their eviction; then the next sweep
  // waits until the index has doubled. Either way sweeps cost amortised
  // O(1) per miss.
  if (index.slots.size() >= index.next_sweep) {
    std::erase_if(index.slots,
                  [](const auto& slot) { return slot.second.expired(); });
    const size_t live = index.slots.size();
    index.next_sweep =
        live <= capacity_ + capacity_ / 2 ? 2 * capacity_ : 2 * live;
  }
  index.slots.emplace(hash, program);
}

void PlanCache::AttachProgramLocked(
    const Key& key, std::shared_ptr<const exec::Program> program) {
  auto it = index_.find(key);
  if (it != index_.end()) it->second->program = std::move(program);
}

Result<PlanCache::CompiledQuery> PlanCache::Lookup(const Key& key,
                                                   Alphabet* alphabet) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      hits_.Inc();
      obs::TraceNote("plan_cache: text hit");
      it->second = Touch(it->second);
      return CompiledQuery{it->second->query, it->second->program};
    }
  }
  // Parse and simplify outside the cache lock (the expensive part; only
  // the parser call holds the alphabet lock); the insert below re-checks
  // the index so a racing parse of the same text cannot create a duplicate
  // LRU entry (which would later make eviction erase the live index slot).
  NodePtr parsed;
  {
    std::lock_guard<std::mutex> lock(alphabet_mu_);
    XPTC_ASSIGN_OR_RETURN(parsed, ParseNode(key.text, alphabet));
  }
  auto query = std::shared_ptr<const Query>(
      new Query(parsed, SimplifyNode(parsed)));

  std::lock_guard<std::mutex> lock(mu_);
  auto raced = index_.find(key);
  if (raced != index_.end()) {
    // A concurrent thread inserted this key while we parsed: keep its
    // entry, discard our redundant (but equivalent) parse.
    hits_.Inc();
    raced->second = Touch(raced->second);
    return CompiledQuery{raced->second->query, raced->second->program};
  }
  misses_.Inc();
  obs::TraceNote("plan_cache: text miss, parsed");
  InsertLocked(Entry{key, query, nullptr});
  return CompiledQuery{std::move(query), nullptr};
}

Result<std::shared_ptr<const Query>> PlanCache::Parse(const std::string& text,
                                                      Alphabet* alphabet) {
  XPTC_ASSIGN_OR_RETURN(CompiledQuery out,
                        Lookup(Key{alphabet, NormaliseText(text)}, alphabet));
  return std::move(out.query);
}

Result<PlanCache::CompiledQuery> PlanCache::ParseCompiled(
    const std::string& text, Alphabet* alphabet) {
  const Key key{alphabet, NormaliseText(text)};
  XPTC_ASSIGN_OR_RETURN(CompiledQuery out, Lookup(key, alphabet));
  if (out.program != nullptr) {
    // A text hit whose entry already carries its program.
    program_hits_.Inc();
    obs::TraceNote("plan_cache: program hit");
    return out;
  }
  // Hashed once, outside the lock; the index compares structure only
  // within one hash chain.
  const NodePtr& plan = out.query->plan();
  const size_t hash = NodeHash(*plan);
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.program = FindProgramLocked(alphabet, plan, hash);
    if (out.program != nullptr) {
      program_hits_.Inc();
      obs::TraceNote("plan_cache: program hit");
      AttachProgramLocked(key, out.program);
      return out;
    }
  }
  // Lower outside the lock (the expensive part), then re-check: when two
  // threads race to compile the same plan, the first insert wins and the
  // loser's redundant (but equivalent) program is discarded.
  const int64_t lower_start_ns = obs::NowNs();
  std::shared_ptr<const exec::Program> program = exec::Program::Compile(plan);
  const int64_t lower_ns = obs::NowNs() - lower_start_ns;

  std::lock_guard<std::mutex> lock(mu_);
  out.program = FindProgramLocked(alphabet, plan, hash);
  if (out.program != nullptr) {
    program_hits_.Inc();
    obs::TraceNote("plan_cache: program hit");
  } else {
    program_misses_.Inc();
    lowering_ns_.Add(lower_ns);
    obs::TraceNote("plan_cache: program miss, lowered");
    InsertProgramLocked(alphabet, hash, program);
    out.program = std::move(program);
  }
  AttachProgramLocked(key, out.program);
  return out;
}

}  // namespace xptc
