#include "hub/protocol.h"

#include <cstring>

#include "json/json.h"
#include "support/error.h"

namespace diog::hub {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

}  // namespace

bool workload_name_ok(const std::string& name) {
  if (name.empty() || name.size() > kMaxWorkloadChars) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  // "." / ".." are directory names, not workload names.
  return name != "." && name != "..";
}

std::string encode_hello(const std::string& workload) {
  DIOG_CHECK(workload_name_ok(workload),
             "hub: unusable workload name: \"" + workload + "\"");
  json::Object o;
  o["schema"] = kSchemaId;
  o["workload"] = workload;
  const std::string body = json::Value(std::move(o)).dump();
  std::string out;
  put_u32(out, kHelloMagic);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out += body;
  return out;
}

bool parse_hello(const unsigned char* data, std::size_t n,
                 std::size_t* consumed, std::string* workload) {
  if (n < 8) return false;
  std::uint32_t magic;
  std::memcpy(&magic, data, 4);
  if (magic != kHelloMagic) {
    throw Error("hub protocol: bad hello magic");
  }
  std::uint32_t len;
  std::memcpy(&len, data + 4, 4);
  if (len > kMaxHelloBytes) {
    throw Error("hub protocol: oversized hello (" + std::to_string(len) +
                " bytes, max " + std::to_string(kMaxHelloBytes) + ")");
  }
  if (n < 8 + static_cast<std::size_t>(len)) return false;
  json::Value v;
  try {
    v = json::parse(std::string_view(
        reinterpret_cast<const char*>(data + 8), len));
  } catch (const Error& e) {
    throw Error(std::string("hub protocol: malformed hello JSON: ") +
                e.what());
  }
  if (!v.is_object() || !v.contains("schema") ||
      !v.at("schema").is_string() ||
      v.at("schema").as_string() != kSchemaId) {
    throw Error(std::string("hub protocol: hello schema is not ") +
                kSchemaId);
  }
  if (!v.contains("workload") || !v.at("workload").is_string() ||
      !workload_name_ok(v.at("workload").as_string())) {
    throw Error("hub protocol: hello carries no usable workload name");
  }
  *workload = v.at("workload").as_string();
  *consumed = 8 + static_cast<std::size_t>(len);
  return true;
}

std::string encode_response(const HubResponse& r) {
  json::Object o;
  o["schema"] = kSchemaId;
  o["status"] = r.ok ? "ok" : "error";
  if (r.ok) {
    o["run_id"] = r.run_id;
    o["deduplicated"] = r.deduplicated;
    o["events"] = r.events;
    o["chunks"] = r.chunks;
    o["dropped"] = r.dropped;
    o["drift_findings"] = r.drift_findings;
  } else {
    o["error"] = r.error;
  }
  return json::Value(std::move(o)).dump() + "\n";
}

HubResponse parse_response(const std::string& line) {
  json::Value v;
  try {
    v = json::parse(line);
  } catch (const Error& e) {
    throw Error(std::string("hub protocol: malformed response: ") + e.what());
  }
  if (!v.is_object() || !v.contains("schema") ||
      !v.at("schema").is_string() ||
      v.at("schema").as_string() != kSchemaId || !v.contains("status")) {
    throw Error(std::string("hub protocol: response schema is not ") +
                kSchemaId);
  }
  HubResponse r;
  r.ok = v.at("status").as_string() == "ok";
  if (r.ok) {
    r.run_id = v.at("run_id").as_string();
    r.deduplicated = v.at("deduplicated").as_bool();
    r.events = static_cast<std::uint64_t>(v.at("events").as_int());
    r.chunks = static_cast<std::uint64_t>(v.at("chunks").as_int());
    r.dropped = static_cast<std::uint64_t>(v.at("dropped").as_int());
    r.drift_findings =
        static_cast<std::uint64_t>(v.at("drift_findings").as_int());
  } else {
    r.error = v.at("error").as_string();
  }
  return r;
}

}  // namespace diog::hub
