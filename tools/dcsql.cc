// dcsql — interactive shell against a live Data Cyclotron ring.
//
// Loads TPC-H microdata (workload/tpch_data.h) into an in-process ring and
// reads statements from stdin: SQL SELECT/INSERT/DELETE (terminated by ';')
// or MAL function blocks (`function user.x():void;` ... `end x;`). The language is
// auto-detected per statement (runtime::Language::kAuto); each result is
// printed as a typed table with its interpreter execution time (pin waits
// included) and the summed time its pins sat blocked on the ring. Parse and
// semantic errors render the structured caret diagnostic.
//
//   ./dcsql [--scale=0.01] [--nodes=3] [--workers=4] [--max_rows=25] [--budget_mb=0]
//
// Meta commands: \tables (schema + fragment versions and pending deltas),
// \mem (ring copies held per node), \q (quit). EOF
// exits cleanly, so
// `echo "select ...;" | dcsql` works for scripted smoke runs.
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "common/flags.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "workload/tpch_data.h"

using namespace dcy;  // NOLINT

namespace {

std::string Trimmed(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWithWord(const std::string& s, const char* word) {
  const std::string t = Trimmed(s);
  const size_t n = std::char_traits<char>::length(word);
  if (t.size() < n || t.compare(0, n, word) != 0) return false;
  return t.size() == n || !std::isalnum(static_cast<unsigned char>(t[n]));
}

void PrintResult(const runtime::QueryResult& r, size_t max_rows) {
  const runtime::ResultSet& rs = r.result;
  if (rs.has_table()) {
    for (size_t c = 0; c < rs.num_columns(); ++c) {
      std::printf("%s%s", c > 0 ? "\t" : "", rs.column(c).name.c_str());
    }
    std::printf("\n");
    const size_t rows = rs.num_rows();
    const size_t shown = max_rows > 0 && rows > max_rows ? max_rows : rows;
    for (size_t row = 0; row < shown; ++row) {
      for (size_t c = 0; c < rs.num_columns(); ++c) {
        std::printf("%s%s", c > 0 ? "\t" : "", rs.ValueAt(row, c).ToString().c_str());
      }
      std::printf("\n");
    }
    if (shown < rows) std::printf("... (%zu of %zu rows shown)\n", shown, rows);
    std::printf("%zu row%s", rows, rows == 1 ? "" : "s");
  } else {
    std::printf("result: %s\n0 rows", mal::DatumToString(rs.scalar()).c_str());
  }
  // Concurrent pins add up, so the summed pin wait can exceed the
  // execution time; neither is a compute share.
  std::printf("  --  %.2f ms exec (pins included), %.2f ms pins blocked (summed)\n",
              1e3 * r.timing.exec_seconds, 1e3 * r.timing.pin_blocked_seconds);
}

/// Runs one statement; false when it failed (parse, compile, or execution),
/// so scripted runs can surface a non-zero exit code.
bool RunStatement(runtime::Session& session, const std::string& text, size_t max_rows) {
  ParseError perr;
  runtime::PrepareOptions popts;
  popts.parse_error = &perr;
  auto prepared = session.Prepare(text, popts);
  if (!prepared.ok()) {
    if (perr.set()) {
      std::printf("error: %s\n", perr.Render().c_str());
    } else {
      std::printf("error: %s\n", prepared.status().message().c_str());
    }
    return false;
  }
  auto result = session.Execute(*prepared);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().message().c_str());
    return false;
  }
  PrintResult(*result, max_rows);
  return true;
}

void PrintSchema(const runtime::RingCluster& ring) {
  const sql::Schema& schema = ring.SqlSchema();
  // Write-subsystem state per table: which base version the fragments carry,
  // the newest commit touching the table, and how many delta BATs the
  // compactor has yet to fold.
  std::map<std::string, write::TableVersionInfo> versions;
  for (auto& v : ring.write_log().TableVersions()) {
    versions.emplace(v.table, std::move(v));
  }
  for (const auto& table : schema.TableNames()) {
    std::printf("%s (", table.c_str());
    const auto& cols = schema.TableColumns(table);
    for (size_t i = 0; i < cols.size(); ++i) {
      std::printf("%s%s %s", i > 0 ? ", " : "", cols[i].name.c_str(),
                  bat::ValTypeName(cols[i].type));
    }
    std::printf(")");
    const auto it = versions.find("sys." + table);
    if (it != versions.end()) {
      const auto& v = it->second;
      std::printf("  -- base v%llu, current v%llu, %llu pending delta%s",
                  static_cast<unsigned long long>(v.base_version),
                  static_cast<unsigned long long>(v.current_version),
                  static_cast<unsigned long long>(v.pending_deltas),
                  v.pending_deltas == 1 ? "" : "s");
      if (v.pending_delta_bytes > 0) {
        std::printf(" (%.1f KiB)", v.pending_delta_bytes / 1024.0);
      }
    }
    std::printf("\n");
  }
}

/// \mem: the ring copies each node's queries hold, against its budget, plus
/// the cluster resilience summary.
void PrintMemory(const runtime::RingCluster& ring, uint32_t nodes) {
  std::printf("node     budget_mb  resident_mb   admit  reject  shed\n");
  for (uint32_t n = 0; n < nodes; ++n) {
    const storage::MemoryMetrics m = ring.NodeMemory(n);
    std::printf("%-8u %9.1f  %11.2f  %6llu  %6llu  %4llu\n", n,
                m.budget_bytes / (1024.0 * 1024.0), m.resident_bytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(m.admissions),
                static_cast<unsigned long long>(m.admission_rejections),
                static_cast<unsigned long long>(m.pressure_sheds));
  }
  const auto res = ring.Resilience();
  std::printf(
      "resilience: %llu retransmits, %llu link resets, %llu heartbeats missed, "
      "%llu resplices, %llu crashed / %llu restarted\n",
      static_cast<unsigned long long>(res.retransmits),
      static_cast<unsigned long long>(res.link_resets),
      static_cast<unsigned long long>(res.heartbeats_missed),
      static_cast<unsigned long long>(res.ring_resplices),
      static_cast<unsigned long long>(res.nodes_crashed),
      static_cast<unsigned long long>(res.nodes_restarted));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.01);
  const uint32_t nodes = static_cast<uint32_t>(flags.GetInt("nodes", 3));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 4));
  const size_t max_rows = static_cast<size_t>(flags.GetInt("max_rows", 25));
  const uint64_t budget_mb = static_cast<uint64_t>(flags.GetInt("budget_mb", 0));

  runtime::RingCluster::Options opts;
  opts.num_nodes = nodes;
  opts.plan_workers = workers;
  if (budget_mb > 0) {
    // The budget bounds the ring copies each node's queries hold; an
    // over-budget copy fails its query typed. \mem shows the charge live.
    opts.memory.budget_bytes = budget_mb * 1024 * 1024;
  }
  runtime::RingCluster ring(opts);

  const workload::TpchData data = workload::GenerateTpchData(scale);
  {
    core::NodeId owner = 0;
    for (auto& [name, b] : workload::TpchBats(data)) {
      DCY_CHECK_OK(ring.LoadBat(owner, name, std::move(b)));
      owner = (owner + 1) % nodes;
    }
  }
  ring.Start();
  auto session = ring.OpenSession(0);
  DCY_CHECK_OK(session.status());

  std::printf("dcsql: TPC-H scale %.3f on a %u-node ring (%zu lineitem rows)\n", scale,
              nodes, data.lineitem.rows());
  std::printf("SQL ends with ';', MAL blocks with 'end ...;'; \\tables, \\mem, \\q.\n");

  std::string buffer;
  std::string line;
  bool in_mal = false;
  uint64_t errors = 0;
  std::printf("dcsql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    const std::string t = Trimmed(line);
    if (buffer.empty()) {
      if (t.empty()) {
        std::printf("dcsql> ");
        std::fflush(stdout);
        continue;
      }
      if (t == "\\q" || t == "quit" || t == "exit") break;
      if (t == "\\tables") {
        PrintSchema(ring);
        std::printf("dcsql> ");
        std::fflush(stdout);
        continue;
      }
      if (t == "\\mem") {
        PrintMemory(ring, nodes);
        std::printf("dcsql> ");
        std::fflush(stdout);
        continue;
      }
      in_mal = StartsWithWord(t, "function");
    }
    buffer += line;
    buffer += '\n';
    // A MAL block runs at its `end` line; anything else runs at ';'.
    const bool complete = in_mal ? StartsWithWord(t, "end")
                                 : (!t.empty() && t.back() == ';');
    if (complete) {
      if (!RunStatement(*session, buffer, max_rows)) ++errors;
      buffer.clear();
      in_mal = false;
      std::printf("dcsql> ");
      std::fflush(stdout);
    }
  }
  if (!Trimmed(buffer).empty() && !RunStatement(*session, buffer, max_rows)) ++errors;
  std::printf("\n");
  // Scripted use (piped stdin): any failed statement fails the run, so CI
  // smoke scripts notice broken queries. Interactive sessions still exit 0
  // — a typo at the prompt is not a process failure.
  const bool interactive = isatty(fileno(stdin)) != 0;
  return !interactive && errors > 0 ? 1 : 0;
}
