// The one interning scheme behind KITE_POST_SITE and KITE_CPU_CATEGORY: a
// process-global, append-only registry that gives each label text one stable
// {label, dense index} entry (a deque never moves an entry). Builtins take
// the first indices.
#ifndef SRC_SIM_INTERN_H_
#define SRC_SIM_INTERN_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>

namespace kite {

template <typename Entry>  // An aggregate {const char* label; uint32_t index;}.
class LabelRegistry {
 public:
  explicit LabelRegistry(std::initializer_list<const char*> builtins) {
    for (const char* label : builtins) {
      Intern(label);
    }
  }

  const Entry* Intern(const char* label) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.label == label || std::strcmp(e.label, label) == 0) {
        return &e;
      }
    }
    return &entries_.emplace_back(Entry{label, static_cast<uint32_t>(entries_.size())});
  }

  // "?" for an index nothing registered.
  const char* Label(uint32_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    return index < entries_.size() ? entries_[index].label : "?";
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  std::mutex mu_;
  std::deque<Entry> entries_;
};

}  // namespace kite

#endif  // SRC_SIM_INTERN_H_
