#include "check/lint2/report.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "support/assert.hpp"
#include "trace/json.hpp"

namespace exa::check::lint {

using trace::json_escape;

namespace {

[[nodiscard]] std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

Baseline parse_baseline(std::string_view text) {
  Baseline b;
  std::istringstream in{std::string(text)};
  std::string raw;
  int lineno = 0;
  std::string pending_comment;  // justification from the line(s) above
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(raw);
    if (line.empty()) {
      pending_comment.clear();
      continue;
    }
    if (line[0] == '#') {
      pending_comment = trim(line.substr(1));
      continue;
    }
    const std::size_t hash = line.find('#');
    const std::string entry_part =
        trim(hash == std::string::npos ? line : line.substr(0, hash));
    const std::string inline_comment =
        hash == std::string::npos ? std::string()
                                  : trim(line.substr(hash + 1));
    std::istringstream fields(entry_part);
    std::string rule;
    std::string path;
    fields >> rule >> path;
    std::string extra;
    if (rule.empty() || path.empty() || (fields >> extra)) {
      b.error = "line " + std::to_string(lineno) +
                ": expected '<rule> <path-suffix>  # justification'";
      return b;
    }
    const std::string why =
        !inline_comment.empty() ? inline_comment : pending_comment;
    if (why.empty()) {
      b.error = "line " + std::to_string(lineno) + ": baseline entry '" +
                rule + " " + path +
                "' has no justification comment (add '# why' inline or on "
                "the line above)";
      return b;
    }
    b.entries.push_back(BaselineEntry{rule, path, why});
    pending_comment.clear();
  }
  return b;
}

int apply_baseline(Report& report, const Baseline& baseline,
                   std::vector<bool>* used) {
  if (used != nullptr) used->assign(baseline.entries.size(), false);
  int matched = 0;
  auto& findings = report.findings;
  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       for (std::size_t i = 0;
                            i < baseline.entries.size(); ++i) {
                         const BaselineEntry& e = baseline.entries[i];
                         if (e.rule == f.rule &&
                             ends_with(f.file, e.path_suffix)) {
                           if (used != nullptr) (*used)[i] = true;
                           ++matched;
                           return true;
                         }
                       }
                       return false;
                     }),
      findings.end());
  report.suppressed += matched;
  return matched;
}

std::string to_text(const Report& report) {
  std::string out;
  for (const Finding& f : report.findings) out += f.format() + "\n";
  return out;
}

std::string to_json(const Report& report) {
  std::string out = "{\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : report.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": \"" + json_escape(f.rule) + "\", \"file\": \"" +
           json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"suppressed\": " + std::to_string(report.suppressed) + "\n}\n";
  return out;
}

std::string to_sarif(const Report& report) {
  std::string out =
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"exa-lint\",\n"
      "          \"rules\": [";
  bool first = true;
  for (const std::string& id : rule_ids()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "            {\"id\": \"" + json_escape(id) + "\"}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  first = true;
  for (const Finding& f : report.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "        {\"ruleId\": \"" + json_escape(f.rule) +
           "\", \"level\": \"warning\", \"message\": {\"text\": \"" +
           json_escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.file) +
           "\"}, \"region\": {\"startLine\": " +
           std::to_string(std::max(1, f.line)) + "}}}]}";
  }
  out += first ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

// --- SARIF shape validator -------------------------------------------------

namespace {

using trace::JsonValue;

/// Member `key` of `v` when `v` is an object holding it, else nullptr.
[[nodiscard]] const JsonValue* get(const JsonValue* v, const std::string& key) {
  return v != nullptr ? v->find(key) : nullptr;
}

/// Non-empty string member `key` of `v`.
[[nodiscard]] bool has_text(const JsonValue* v, const std::string& key) {
  const JsonValue* s = get(v, key);
  return s != nullptr && s->is_string() && !s->as_string().empty();
}

/// Non-empty array member `key` of `v`, else nullptr.
[[nodiscard]] const JsonValue::Array* get_array(const JsonValue* v,
                                                const std::string& key) {
  const JsonValue* a = get(v, key);
  return a != nullptr && a->is_array() ? &a->as_array() : nullptr;
}

bool fail(std::string* why, const std::string& what) {
  if (why != nullptr) *why = what;
  return false;
}

}  // namespace

bool sarif_has_minimal_shape(std::string_view sarif_text, std::string* why) {
  JsonValue root;
  try {
    root = trace::json_parse(sarif_text);
  } catch (const support::Error&) {
    return fail(why, "not well-formed JSON");
  }
  const JsonValue* version = get(&root, "version");
  if (version == nullptr || !version->is_string() ||
      version->as_string() != "2.1.0") {
    return fail(why, "missing \"version\": \"2.1.0\"");
  }
  const JsonValue::Array* runs = get_array(&root, "runs");
  if (runs == nullptr || runs->empty()) {
    return fail(why, "missing non-empty \"runs\" array");
  }
  for (const JsonValue& run : *runs) {
    if (!has_text(get(get(&run, "tool"), "driver"), "name")) {
      return fail(why, "run missing tool.driver.name");
    }
    const JsonValue::Array* results = get_array(&run, "results");
    if (results == nullptr) {
      return fail(why, "run missing \"results\" array");
    }
    for (const JsonValue& result : *results) {
      if (!has_text(&result, "ruleId")) {
        return fail(why, "result missing ruleId");
      }
      if (get(get(&result, "message"), "text") == nullptr) {
        return fail(why, "result missing message.text");
      }
      const JsonValue::Array* locations = get_array(&result, "locations");
      if (locations == nullptr || locations->empty()) {
        return fail(why, "result missing locations");
      }
      const JsonValue* phys = get(&locations->front(), "physicalLocation");
      if (!has_text(get(phys, "artifactLocation"), "uri")) {
        return fail(why, "result missing physicalLocation.artifactLocation"
                         ".uri");
      }
      const JsonValue* start = get(get(phys, "region"), "startLine");
      if (start == nullptr || !start->is_number() ||
          start->as_number() < 1.0) {
        return fail(why, "result missing region.startLine >= 1");
      }
    }
  }
  if (why != nullptr) why->clear();
  return true;
}

}  // namespace exa::check::lint
