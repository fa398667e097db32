// HRQL shell: an interactive (or piped) query interpreter over a generated
// personnel database — the paper's algebra as a command line.
//
//   $ ./example_hrql_shell                      # interactive
//   $ echo 'select_when(emp, Salary >= 100000)' | ./example_hrql_shell
//
// Commands:
//   <hrql expression>   evaluate (relation- or lifespan-sorted)
//   \schema             print every relation scheme
//   \snapshot REL T     print the classical table of REL at chronon T
//   \quit
//
// Exits 1, naming the failing step on stderr, if the demo database cannot
// be built.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "query/executor.h"
#include "query/parser.h"
#include "util/pretty.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace hrdm;

namespace {

Status LoadRelation(storage::Database* db, const Relation& rel) {
  HRDM_RETURN_IF_ERROR(db->CreateRelation(rel.scheme()));
  for (const Tuple& t : rel) {
    HRDM_RETURN_IF_ERROR(db->Insert(rel.scheme()->name(), t));
  }
  return Status::OK();
}

Status MakeDemoDb(storage::Database* db) {
  Rng rng(7);
  workload::PersonnelConfig emp_config;
  emp_config.num_employees = 25;
  HRDM_ASSIGN_OR_RETURN(Relation emp,
                        workload::MakePersonnel(&rng, emp_config));
  HRDM_RETURN_IF_ERROR(LoadRelation(db, emp));

  workload::StockMarketConfig stock_config;
  stock_config.num_tickers = 10;
  HRDM_ASSIGN_OR_RETURN(Relation stocks,
                        workload::MakeStockMarket(&rng, stock_config));
  return LoadRelation(db, stocks);
}

void HandleCommand(const std::string& line, const storage::Database& db) {
  if (line == "\\schema") {
    for (const std::string& name : db.RelationNames()) {
      std::printf("%s\n", (*db.Get(name))->scheme()->ToString().c_str());
    }
    return;
  }
  if (line == "\\snapshot" || line.rfind("\\snapshot ", 0) == 0) {
    std::istringstream in(line.substr(9));
    std::string rel;
    long long t = 0;
    if (!(in >> rel >> t) || !(in >> std::ws).eof()) {
      std::printf("error: usage: \\snapshot REL T (T an integer chronon)\n");
      return;
    }
    auto r = db.Get(rel);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", RenderSnapshot(**r, t).c_str());
    return;
  }
  // A query: try the relation sort first, then the lifespan sort.
  auto parsed = query::ParseQuery(line);
  if (!parsed.ok()) {
    std::printf("error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  if (std::holds_alternative<query::ExprPtr>(*parsed)) {
    auto result = query::Eval(std::get<query::ExprPtr>(*parsed),
                              *db.CurrentVersion());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s(%zu tuples)\n", RenderHistory(*result).c_str(),
                result->size());
  } else {
    auto result =
        query::EvalLifespan(std::get<query::LsExprPtr>(*parsed),
                            *db.CurrentVersion());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", result->ToString().c_str());
  }
}

}  // namespace

int main() {
  storage::Database db;
  if (Status s = MakeDemoDb(&db); !s.ok()) {
    std::fprintf(stderr, "FATAL building the demo database: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf(
      "HRDM shell. Relations: emp, stocks. Try:\n"
      "  select_when(emp, Salary >= 150000)\n"
      "  when(select_when(emp, Dept = \"dept0\"))\n"
      "  timeslice(stocks, {[0,9]})\n"
      "  aggregate(emp, avg Salary by Dept)\n"
      "  \\schema   \\snapshot emp 50   \\quit\n\n");
  std::string line;
  while (std::printf("hrdm> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    HandleCommand(line, db);
  }
  return 0;
}
