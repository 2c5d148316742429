#include "core/model.h"

#include <algorithm>
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

namespace {

json::Value fn_to_json(hooks::Fn f) {
  return json::Value(static_cast<std::int64_t>(f));
}

}  // namespace

// --- Stage 1 -----------------------------------------------------------------

json::Value SyncSite::to_json() const {
  json::Object o;
  o["api"] = fn_to_json(api);
  o["api_name"] = std::string(hooks::fn_name(api));
  o["stack"] = stack.to_json();
  o["hits"] = hits;
  return json::Value(std::move(o));
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

json::Value Stage1Result::to_json() const {
  json::Object o;
  o["wait_fn"] = fn_to_json(wait_fn);
  o["wait_fn_name"] = wait_fn == hooks::Fn::kCount_
                          ? std::string("(undiscovered)")
                          : std::string(hooks::fn_name(wait_fn));
  o["exec_time_ns"] = duration_to_json(exec_time);
  json::Array sites;
  sites.reserve(sync_sites.size());
  for (const SyncSite& s : sync_sites) sites.push_back(s.to_json());
  o["sync_sites"] = std::move(sites);
  return json::Value(std::move(o));
}

// --- Stage 3 -----------------------------------------------------------------

json::Value SyncClassification::to_json() const {
  json::Object o;
  o["op_index"] = op_index;
  o["required"] = required;
  o["access_stack"] = access_stack.to_json();
  o["access_ip"] = static_cast<std::int64_t>(access_ip);
  return json::Value(std::move(o));
}

json::Value DuplicateTransfer::to_json() const {
  json::Object o;
  o["op_index"] = op_index;
  o["first_op_index"] = first_op_index;
  o["digest"] = digest;
  o["bytes"] = bytes;
  return json::Value(std::move(o));
}

json::Value Stage3Result::to_json() const {
  json::Object o;
  o["exec_time_ns"] = duration_to_json(exec_time);
  json::Array syncs_arr;
  syncs_arr.reserve(syncs.size());
  for (const SyncClassification& s : syncs) syncs_arr.push_back(s.to_json());
  o["syncs"] = std::move(syncs_arr);
  json::Array dups;
  dups.reserve(duplicate_transfers.size());
  for (const DuplicateTransfer& d : duplicate_transfers) {
    dups.push_back(d.to_json());
  }
  o["duplicate_transfers"] = std::move(dups);
  o["transfers_hashed"] = transfers_hashed;
  o["bytes_hashed"] = bytes_hashed;
  return json::Value(std::move(o));
}

// --- Stage 4 -----------------------------------------------------------------

json::Value SyncUse::to_json() const {
  json::Object o;
  o["op_index"] = op_index;
  o["first_use_time_ns"] = duration_to_json(first_use_time);
  return json::Value(std::move(o));
}

json::Value Stage4Result::to_json() const {
  json::Object o;
  o["exec_time_ns"] = duration_to_json(exec_time);
  json::Array arr;
  arr.reserve(uses.size());
  for (const SyncUse& u : uses) arr.push_back(u.to_json());
  o["uses"] = std::move(arr);
  return json::Value(std::move(o));
}

}  // namespace diog::ffm
