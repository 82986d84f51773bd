// Interactive REPL / script runner for the bagalg surface syntax.
//
//   $ ./build/examples/repl                      # interactive
//   $ ./build/examples/repl script.bag           # run a script file
//   $ ./build/examples/repl --trace=t.json s.bag # ... with query tracing
//   $ echo "eval uplus('{{a}}, '{{a}})" | ./build/examples/repl
//
// Commands: let NAME = VALUE | schema NAME : TYPE | eval EXPR | count EXPR
//           exec EXPR | type EXPR | analyze EXPR | explain [analyze] EXPR
//           optimize EXPR | stats | timing on|off | \metrics | \trace FILE
//           \timeout MS | \memlimit BYTES | \journal [N] | \flightrec ...
//           \prom [FILE] | reset
// Ctrl-C cancels the statement currently running (the session survives;
// at an idle prompt it is a no-op). Ctrl-D exits.
// See src/lang/script.h for the full description.

#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/lang/script.h"
#include "src/util/build_info.h"

using namespace bagalg;

namespace {

// Copy of the runner's session token, installed before the signal handler.
// CancellationToken::Cancel is an atomic release store, so calling it from
// the handler is async-signal-safe.
CancellationToken g_cancel;

void HandleInterrupt(int) { g_cancel.Cancel(); }

}  // namespace

int main(int argc, char** argv) {
  lang::ScriptRunner runner;

  g_cancel = runner.cancel_token();
  struct sigaction action = {};
  action.sa_handler = HandleInterrupt;
  sigemptyset(&action.sa_mask);
  // SA_RESTART keeps the blocking getline at the prompt alive across the
  // signal; only the governed statement in flight observes the token.
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);

  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    constexpr char kTraceFlag[] = "--trace=";
    if (std::strncmp(argv[i], kTraceFlag, sizeof(kTraceFlag) - 1) == 0) {
      auto r = runner.RunLine(std::string("\\trace ") +
                              (argv[i] + sizeof(kTraceFlag) - 1));
      if (!r.ok()) {
        std::cerr << r.status() << "\n";
        return 1;
      }
      continue;
    }
    script_path = argv[i];
  }

  if (script_path != nullptr) {
    std::ifstream file(script_path);
    if (!file) {
      std::cerr << "cannot open " << script_path << "\n";
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    auto result = runner.RunScript(text.str());
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      // A governor trip leaves a flight-recorder dump behind — the black
      // box of the aborted statement. Surface it next to the error.
      std::string dump = runner.TakeFlightDump();
      if (!dump.empty()) std::cerr << dump << "\n";
      return 1;
    }
    std::cout << *result;
    return 0;
  }

  bool interactive = true;
  if (interactive) {
    std::cout << BuildInfoString() << " engine=ir\n"
              << "bagalg — a nested bag algebra (Grumbach & Milo, PODS'93)\n"
              << "commands: let, schema, eval, count, exec, type, analyze, "
                 "explain [analyze|cost|ir], optimize, stats, timing, \\lint, "
                 "\\budget, \\timeout, \\memlimit, \\metrics, \\trace, "
                 "\\journal, \\flightrec, \\prom, reset. "
                 "Ctrl-C cancels a running query; Ctrl-D exits.\n";
  }
  std::string line;
  while (true) {
    std::cout << "bagalg> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    auto result = runner.RunLine(line);
    if (!result.ok()) {
      std::cout << "error: " << result.status() << "\n";
      std::string dump = runner.TakeFlightDump();
      if (!dump.empty()) std::cout << dump << "\n";
      continue;
    }
    if (!result->empty()) std::cout << *result << "\n";
  }
  std::cout << "\n";
  return 0;
}
