#include "core/model.h"

#include <set>

namespace diog::ffm {

std::string_view to_string(ProblemType p) {
  switch (p) {
    case ProblemType::kNone: return "none";
    case ProblemType::kUnnecessarySync: return "unnecessary_synchronization";
    case ProblemType::kMisplacedSync: return "misplaced_synchronization";
    case ProblemType::kUnnecessaryTransfer: return "unnecessary_transfer";
  }
  return "?";
}

json::Value duration_to_json(Duration d) {
  return json::Value(static_cast<std::int64_t>(d.count()));
}

std::vector<hooks::Fn> Stage1Result::traced_fns() const {
  std::set<hooks::Fn> fns;
  for (const SyncSite& s : sync_sites) fns.insert(s.api);
  for (std::size_t i = 0; i < hooks::kFnCount; ++i) {
    const auto f = static_cast<hooks::Fn>(i);
    if (hooks::is_documented_transfer_fn(f) || hooks::is_explicit_sync_fn(f)) {
      fns.insert(f);
    }
  }
  return {fns.begin(), fns.end()};
}

}  // namespace diog::ffm
