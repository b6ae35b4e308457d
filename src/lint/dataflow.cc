#include "lint/dataflow.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lint/symbols.h"
#include "lint/token_cursor.h"

namespace vcmp {
namespace lint {
namespace {

using StringSet = std::unordered_set<std::string>;

// --- C4: shared-state writes inside parallel regions --------------------

const StringSet kAssignOps = {"=",  "+=", "-=", "*=",  "/=",  "%=",
                              "&=", "|=", "^=", "<<=", ">>="};

/// Container methods that mutate the receiver; `obj.push_back(x)` is a
/// write to `obj` even though no assignment operator appears.
const StringSet kMutatingMethods = {
    "push_back", "emplace_back",  "pop_back", "push_front", "emplace_front",
    "pop_front", "insert",        "emplace",  "erase",      "clear",
    "resize",    "assign",        "append",   "reserve",    "swap",
    "merge",     "push",          "pop"};

/// RAII lock types; one taken in a parallel body before a write makes
/// the write synchronized (coarse: any lock anywhere earlier in the
/// body counts — the goal is zero false findings on locked code).
const StringSet kLockTypes = {"lock_guard", "scoped_lock", "unique_lock"};

/// Identifiers that disqualify the *previous* token from being a type
/// name in the `Type name ...` declaration heuristic.
const StringSet kNotAType = {
    "return", "else",     "new",    "delete",  "break",    "continue",
    "case",   "goto",     "throw",  "do",      "typename", "template",
    "public", "private",  "protected", "operator", "sizeof", "co_return",
    "co_yield", "co_await", "if",   "while",   "switch",   "using",
    "namespace", "struct", "class", "enum",    "union"};

/// A written lvalue, decomposed by walking the token stream: base
/// identifier (possibly `this`), member-access chain, and the token
/// ranges of every subscript along the path.
struct Lvalue {
  bool ok = false;
  std::string base;
  bool via_this = false;
  std::vector<std::string> fields;
  /// (first, one-past-last) token ranges strictly inside each `[...]`.
  std::vector<std::pair<size_t, size_t>> subs;
};

std::string Describe(const Lvalue& lv) {
  std::string d;
  for (const std::string& f : lv.fields) {
    if (!d.empty()) d += ".";
    d += f;
  }
  if (lv.via_this) return "this->" + d;
  return d.empty() ? lv.base : lv.base + "." + d;
}

/// Walks backwards from `p` (the token just before an assignment
/// operator, or just before a `.method(` mutation) to the chain's base
/// identifier. Fails open (ok=false) on anything it does not model —
/// `(*out)[i]`, call results, casts — a missed finding beats a false
/// one here.
Lvalue WalkBackLvalue(const TokenCursor& c, size_t p, size_t floor) {
  Lvalue lv;
  std::vector<std::string> rev_fields;
  while (p > floor) {
    if (c.IsPunct(p, "]")) {
      const size_t close = p;
      int depth = 0;
      while (p > floor) {
        if (c.IsPunct(p, "]")) ++depth;
        if (c.IsPunct(p, "[") && --depth == 0) break;
        --p;
      }
      if (!c.IsPunct(p, "[")) return lv;  // Unbalanced inside the body.
      lv.subs.emplace_back(p + 1, close);
      if (p <= floor) return lv;
      --p;
      continue;
    }
    if (c.IsIdent(p)) {
      const std::string& name = c.toks[p].text;
      if (p > floor + 1 &&
          (c.IsPunct(p - 1, ".") || c.IsPunct(p - 1, "->"))) {
        rev_fields.push_back(name);
        p -= 2;
        continue;
      }
      lv.base = name;
      lv.via_this = name == "this";
      lv.ok = true;
      break;
    }
    return lv;
  }
  lv.fields.assign(rev_fields.rbegin(), rev_fields.rend());
  if (lv.via_this && lv.fields.empty()) lv.ok = false;
  return lv;
}

/// Forwards walk for prefix `++x` / `--x`: ident at `p`, then any
/// `.field` / `->field` / `[...]` suffixes up to `limit`.
Lvalue WalkForwardLvalue(const TokenCursor& c, size_t p, size_t limit) {
  Lvalue lv;
  if (!c.IsIdent(p)) return lv;
  lv.base = c.toks[p].text;
  lv.via_this = lv.base == "this";
  lv.ok = true;
  size_t i = p + 1;
  while (i + 1 < limit) {
    if ((c.IsPunct(i, ".") || c.IsPunct(i, "->")) && c.IsIdent(i + 1)) {
      lv.fields.push_back(c.toks[i + 1].text);
      i += 2;
      continue;
    }
    if (c.IsPunct(i, "[")) {
      const size_t close = c.SkipBalanced(i);
      if (close > c.size()) return lv;
      lv.subs.emplace_back(i + 1, close - 1);
      i = close;
      continue;
    }
    break;
  }
  if (lv.via_this && lv.fields.empty()) lv.ok = false;
  return lv;
}

/// Everything the race check knows about one parallel-body lambda.
struct BodyEnv {
  const LambdaInfo* L = nullptr;
  StringSet params;
  StringSet value_caps;
  StringSet ref_caps;
  StringSet locals;          // Plain locals declared in the body.
  StringSet index_derived;   // Locals whose value derives from a param.
  StringSet shared_aliases;  // Ref locals bound to captured state.
  size_t first_lock_tok = static_cast<size_t>(-1);
};

/// True when [b, e) uses a name from `a` or `b2` *directly* — not
/// through a member access. Directness is the load-bearing distinction:
/// `loads[machine]` is shard-disjoint because `machine` is (derived
/// from) the task index, while `residual[m.target % n]` is not — the
/// member changes the value domain, so distinct tasks may collide.
bool MentionsDirect(const TokenCursor& c, size_t b, size_t e,
                    const StringSet& a, const StringSet& b2) {
  for (size_t i = b; i < e; ++i) {
    if (!c.IsIdent(i)) continue;
    const std::string& t = c.toks[i].text;
    if (a.count(t) == 0 && b2.count(t) == 0) continue;
    if (c.IsPunct(i + 1, ".") || c.IsPunct(i + 1, "->")) continue;
    if (i > b && (c.IsPunct(i - 1, ".") || c.IsPunct(i - 1, "->"))) continue;
    return true;
  }
  return false;
}

bool IsSharedName(const std::string& name, const BodyEnv& env,
                  const FileSymbols& symbols) {
  const LambdaInfo& L = *env.L;
  if (name == "this") return true;
  if (env.params.count(name) != 0 || env.locals.count(name) != 0 ||
      env.index_derived.count(name) != 0 ||
      env.value_caps.count(name) != 0) {
    return false;
  }
  if (env.shared_aliases.count(name) != 0) return true;
  if (env.ref_caps.count(name) != 0) return true;
  if (L.capture_all_ref) return true;  // [&]: unknown names are captured.
  // [this] / [=] reach data members through the captured object pointer.
  if ((L.captures_this || L.capture_all_value) && symbols.IsMemberField(name)) {
    return true;
  }
  return false;
}

/// Statement end for an `=` initializer: the `;` at nesting depth 0
/// (or wherever the enclosing construct closes first).
size_t StatementEnd(const TokenCursor& c, size_t from, size_t limit) {
  int depth = 0;
  for (size_t i = from; i < limit; ++i) {
    if (c.toks[i].kind != TokenKind::kPunct) continue;
    const std::string& p = c.toks[i].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") {
      if (depth == 0) return i;
      --depth;
    }
    if (p == ";" && depth == 0) return i;
    if (p == "," && depth == 0) return i;  // Next declarator / next arg.
  }
  return limit;
}

/// Range end for a range-for binding: the `)` that closes the for
/// header.
size_t RangeForEnd(const TokenCursor& c, size_t from, size_t limit) {
  int depth = 0;
  for (size_t i = from; i < limit; ++i) {
    if (c.toks[i].kind != TokenKind::kPunct) continue;
    const std::string& p = c.toks[i].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") {
      if (depth == 0) return i;
      --depth;
    }
    if (p == ";" && depth == 0) return i;
  }
  return limit;
}

/// Declaration pass over a parallel body: classifies every `Type name`
/// declaration as index-derived (initializer directly uses a param or
/// another index-derived name), a shared alias (a reference bound to
/// captured state), or a plain local. A single forward pass suffices —
/// declarations precede uses.
void CollectBodyDecls(const TokenCursor& c,
                      const std::unordered_map<size_t, size_t>& lambda_intros,
                      const FileSymbols& symbols, BodyEnv* env) {
  const LambdaInfo& L = *env->L;
  for (size_t j = L.body_begin + 1; j + 1 < L.body_end; ++j) {
    auto intro = lambda_intros.find(j);
    if (intro != lambda_intros.end()) {
      j = intro->second - 1;  // Skip nested capture lists.
      continue;
    }
    if (!c.IsIdent(j)) continue;
    const Token* prev = c.At(j - 1);
    bool typed_before = false;
    if (prev != nullptr) {
      if (prev->kind == TokenKind::kIdentifier) {
        typed_before = kNotAType.count(prev->text) == 0;
      } else if (prev->kind == TokenKind::kPunct) {
        typed_before =
            prev->text == "&" || prev->text == "&&" || prev->text == "*" ||
            prev->text == ">";
      }
    }
    if (!typed_before) continue;
    const std::string& name = c.toks[j].text;

    size_t init_b = 0;
    size_t init_e = 0;
    bool have_init = false;
    if (c.IsPunct(j + 1, "=")) {
      init_b = j + 2;
      init_e = StatementEnd(c, j + 2, L.body_end);
      have_init = true;
    } else if (c.IsPunct(j + 1, "{")) {
      const size_t close = c.SkipBalanced(j + 1);
      if (close > c.size()) continue;
      init_b = j + 2;
      init_e = close - 1;
      have_init = true;
    } else if (c.IsPunct(j + 1, ":")) {  // Range-for binding.
      init_b = j + 2;
      init_e = RangeForEnd(c, j + 2, L.body_end);
      have_init = true;
    } else if (!c.IsPunct(j + 1, ";")) {
      continue;  // Not a declaration this heuristic models.
    }

    const bool is_ref = c.IsPunct(j - 1, "&") || c.IsPunct(j - 1, "&&");
    if (have_init &&
        MentionsDirect(c, init_b, init_e, env->params, env->index_derived)) {
      env->index_derived.insert(name);
      continue;
    }
    if (is_ref && have_init) {
      bool shared = false;
      for (size_t i = init_b; i < init_e && !shared; ++i) {
        if (!c.IsIdent(i)) continue;
        if (c.IsPunct(i + 1, "(")) continue;  // A call, not a variable.
        if (i > init_b &&
            (c.IsPunct(i - 1, ".") || c.IsPunct(i - 1, "->"))) {
          continue;  // Field names classify via their base.
        }
        shared = IsSharedName(c.toks[i].text, *env, symbols);
      }
      if (shared) {
        env->shared_aliases.insert(name);
        continue;
      }
    }
    env->locals.insert(name);
  }
}

void AnalyzeParallelBody(
    const TokenCursor& c, const FileSymbols& symbols,
    const std::unordered_map<size_t, size_t>& lambda_intros,
    const LambdaInfo& L, const std::string& launcher, const std::string& path,
    std::set<std::pair<int, std::string>>* reported,
    std::vector<Finding>* out) {
  BodyEnv env;
  env.L = &L;
  for (const ParamDecl& p : L.params) env.params.insert(p.name);
  for (const std::string& n : L.value_captures) env.value_caps.insert(n);
  for (const std::string& n : L.ref_captures) env.ref_caps.insert(n);
  CollectBodyDecls(c, lambda_intros, symbols, &env);

  for (size_t j = L.body_begin + 1; j + 1 < L.body_end; ++j) {
    if (c.IsIdent(j) && kLockTypes.count(c.toks[j].text) != 0) {
      env.first_lock_tok = j;
      break;
    }
  }

  auto consider = [&](const Lvalue& lv, size_t op_tok,
                      const std::string& how) {
    if (!lv.ok) return;
    if (!lv.via_this && !IsSharedName(lv.base, env, symbols)) return;
    for (const auto& [b, e] : lv.subs) {
      if (MentionsDirect(c, b, e, env.params, env.index_derived)) return;
    }
    if (symbols.IsAtomic(lv.base)) return;
    for (const std::string& f : lv.fields) {
      if (symbols.IsAtomic(f)) return;
    }
    if (op_tok > env.first_lock_tok) return;  // A lock is held in the body.
    const int line = c.Line(op_tok);
    const std::string desc = Describe(lv);
    if (!reported->insert({line, desc}).second) return;
    Finding f;
    f.file = path;
    f.line = line;
    f.rule = "C4";
    f.message = how + " shared '" + desc + "' inside a " + launcher +
                " body — not shard-indexed, atomic, or lock-guarded; use "
                "per-shard slots reduced after the join, synchronize it, "
                "or annotate vcmp:deterministic-reduction / "
                "vcmp:query-local / vcmp:lint-allow(C4, reason)";
    out->push_back(std::move(f));
  };

  for (size_t j = L.body_begin + 1; j + 1 < L.body_end; ++j) {
    auto intro = lambda_intros.find(j);
    if (intro != lambda_intros.end()) {
      j = intro->second - 1;  // Capture-init `[x = ...]` is not a write.
      continue;
    }
    const Token* t = c.At(j);
    if (t == nullptr) break;
    if (t->kind == TokenKind::kPunct) {
      if (kAssignOps.count(t->text) != 0) {
        consider(WalkBackLvalue(c, j - 1, L.body_begin), j, "write to");
      } else if (t->text == "++" || t->text == "--") {
        if (c.IsIdent(j - 1) || c.IsPunct(j - 1, "]")) {
          consider(WalkBackLvalue(c, j - 1, L.body_begin), j, "write to");
        } else if (c.IsIdent(j + 1)) {
          consider(WalkForwardLvalue(c, j + 1, L.body_end), j, "write to");
        }
      }
      continue;
    }
    if (t->kind == TokenKind::kIdentifier &&
        kMutatingMethods.count(t->text) != 0 && j >= 2 &&
        (c.IsPunct(j - 1, ".") || c.IsPunct(j - 1, "->")) &&
        c.IsPunct(j + 1, "(")) {
      consider(WalkBackLvalue(c, j - 2, L.body_begin), j,
               "mutation ('" + t->text + "') of");
    }
  }
}

/// The launcher set, closed under wrapper lambdas: a bound lambda that
/// forwards one of its own parameters into a known launcher's argument
/// list is itself a launcher (a `parallel_shards`-style wrapper).
std::set<std::string> ComputeLaunchers(const TokenCursor& c,
                                       const ParsedFile& parsed) {
  std::set<std::string> launchers = {"ParallelFor", "ParallelForStealable"};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const LambdaInfo& L : parsed.lambdas) {
      if (L.bound_name.empty() || L.params.empty() ||
          launchers.count(L.bound_name) != 0) {
        continue;
      }
      for (const CallSiteInfo& call : parsed.calls) {
        if (call.tok <= L.body_begin || call.tok >= L.body_end ||
            launchers.count(call.callee) == 0 ||
            !c.IsPunct(call.tok + 1, "(")) {
          continue;
        }
        const size_t close = c.SkipBalanced(call.tok + 1);
        StringSet params;
        for (const ParamDecl& p : L.params) params.insert(p.name);
        if (MentionsDirect(c, call.tok + 2, close - 1, params, params)) {
          launchers.insert(L.bound_name);
          changed = true;
          break;
        }
      }
    }
  }
  return launchers;
}

/// Top-level arguments of the call whose `(` is at `open` that consist
/// of a single identifier token — candidates for bound-lambda bodies.
std::vector<std::string> SingleIdentArgs(const TokenCursor& c, size_t open,
                                         size_t close) {
  std::vector<std::string> args;
  int depth = 0;
  size_t seg_start = open + 1;
  auto flush = [&](size_t seg_end) {
    if (seg_end == seg_start + 1 && c.IsIdent(seg_start)) {
      args.push_back(c.toks[seg_start].text);
    }
    seg_start = seg_end + 1;
  };
  for (size_t i = open; i < close; ++i) {
    if (c.toks[i].kind != TokenKind::kPunct) continue;
    const std::string& p = c.toks[i].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") --depth;
    if (p == "," && depth == 1) flush(i);
  }
  if (close >= 1) flush(close - 1);
  return args;
}

void CheckC4(const std::string& path, const TokenCursor& c,
             const ParsedFile& parsed, std::vector<Finding>* out) {
  const FileSymbols symbols(parsed);
  const std::set<std::string> launchers = ComputeLaunchers(c, parsed);
  std::unordered_map<size_t, size_t> lambda_intros;
  for (const LambdaInfo& L : parsed.lambdas) {
    lambda_intros.emplace(L.intro_tok, L.intro_end);
  }

  std::set<size_t> analyzed;  // Lambda indices, each body checked once.
  std::set<std::pair<int, std::string>> reported;
  for (const CallSiteInfo& call : parsed.calls) {
    if (launchers.count(call.callee) == 0) continue;
    if (!c.IsPunct(call.tok + 1, "(")) continue;
    const size_t open = call.tok + 1;
    const size_t close = c.SkipBalanced(open);
    if (close > c.size()) continue;

    // Inline lambda arguments: the outermost lambdas whose intro sits
    // inside this argument list.
    for (size_t li = 0; li < parsed.lambdas.size(); ++li) {
      const LambdaInfo& L = parsed.lambdas[li];
      if (L.intro_tok <= open || L.intro_tok >= close - 1) continue;
      bool nested = false;
      for (const LambdaInfo& M : parsed.lambdas) {
        if (M.intro_tok > open && M.intro_tok < L.intro_tok &&
            L.intro_tok < M.body_end) {
          nested = true;
          break;
        }
      }
      if (!nested && analyzed.insert(li).second) {
        AnalyzeParallelBody(c, symbols, lambda_intros, L, call.callee, path,
                            &reported, out);
      }
    }

    // Bound-lambda arguments: `auto fn = [&](...){...};
    // pool.ParallelFor(n, fn)`. Prefer a binding in the same enclosing
    // function; fall back to any unique match.
    for (const std::string& name : SingleIdentArgs(c, open, close)) {
      int best = -1;
      for (size_t li = 0; li < parsed.lambdas.size(); ++li) {
        if (parsed.lambdas[li].bound_name != name) continue;
        if (parsed.lambdas[li].enclosing_function ==
            call.enclosing_function) {
          best = static_cast<int>(li);
          break;
        }
        if (best == -1) best = static_cast<int>(li);
      }
      if (best >= 0 && analyzed.insert(static_cast<size_t>(best)).second) {
        AnalyzeParallelBody(c, symbols, lambda_intros,
                            parsed.lambdas[static_cast<size_t>(best)],
                            call.callee, path, &reported, out);
      }
    }
  }
}

// --- D7: pointer-identity ordering --------------------------------------

const StringSet kOrderedByKey = {"map",           "set",
                                 "multimap",      "multiset",
                                 "unordered_map", "unordered_set",
                                 "unordered_multimap", "unordered_multiset"};
const StringSet kCmpOps = {"<", "<=", ">", ">="};

/// Scans the first template argument after the `<` at `open`; true when
/// it contains a `*` at any nesting (a pointer anywhere in the key type
/// makes the key order follow allocation addresses). Bails (false) when
/// the `<` turns out not to open a template argument list.
bool FirstTemplateArgHasPointer(const TokenCursor& c, size_t open) {
  int angle = 0;
  int other = 0;
  for (size_t i = open; i < c.size(); ++i) {
    if (c.toks[i].kind != TokenKind::kPunct) continue;
    const std::string& p = c.toks[i].text;
    if (p == ";" || p == "{" || p == "}") return false;  // Not a template.
    if (p == "(" || p == "[") ++other;
    if (p == ")" || p == "]") {
      if (other == 0) return false;
      --other;
    }
    if (p == "," && angle == 1 && other == 0) return false;  // Arg 2+.
    if (i > open && other == 0 && p.find('*') != std::string::npos) {
      return true;
    }
    for (char ch : p) {
      if (ch == '<') ++angle;
      if (ch == '>' && --angle == 0) return false;
    }
  }
  return false;
}

void CheckD7(const std::string& path, const TokenCursor& c,
             const ParsedFile& parsed, std::vector<Finding>* out) {
  std::set<std::pair<int, std::string>> seen;
  auto report = [&](int line, const std::string& kind, std::string msg) {
    if (!seen.insert({line, kind}).second) return;
    Finding f;
    f.file = path;
    f.line = line;
    f.rule = "D7";
    f.message = std::move(msg);
    out->push_back(std::move(f));
  };

  for (size_t i = 0; i < c.size(); ++i) {
    if (!c.IsIdent(i)) continue;
    const std::string& t = c.toks[i].text;
    const int line = c.Line(i);
    if (kOrderedByKey.count(t) != 0 && c.IsPunct(i + 1, "<") &&
        FirstTemplateArgHasPointer(c, i + 1)) {
      report(line, "key",
             "pointer-keyed 'std::" + t +
                 "' — key order/hashing follows allocation addresses, "
                 "which differ between runs; key by a stable id (vertex "
                 "id, machine index) instead");
    } else if (t == "reinterpret_cast" && c.IsPunct(i + 1, "<")) {
      const size_t end = c.SkipAngles(i + 1);
      for (size_t j = i + 2; j + 1 < end; ++j) {
        if (c.IsIdent(j) &&
            (c.toks[j].text == "uintptr_t" || c.toks[j].text == "intptr_t")) {
          report(line, "ptr-int",
                 "pointer-to-integer cast ('reinterpret_cast<" +
                     c.toks[j].text +
                     ">') — address bits are not stable across runs; "
                     "derive ordering/hashes from a stable id");
          break;
        }
      }
    } else if (t == "hash" && c.IsPunct(i + 1, "<")) {
      const size_t end = c.SkipAngles(i + 1);
      for (size_t j = i + 2; j + 1 < end; ++j) {
        if (c.toks[j].kind == TokenKind::kPunct &&
            c.toks[j].text.find('*') != std::string::npos) {
          report(line, "hash",
                 "'std::hash' over a pointer type — hashes allocation "
                 "addresses, which differ between runs; hash a stable id "
                 "instead");
          break;
        }
      }
    } else if (t == "uintptr_t" || t == "intptr_t") {
      report(line, "ptr-int",
             "'" + t +
                 "' value derived from a pointer — address bits are not "
                 "stable across runs; use a stable id for anything that "
                 "orders or hashes");
    }
  }

  // Relational comparisons between two pointer-typed parameters of the
  // same function or lambda order results by address.
  auto check_ptr_cmps = [&](const std::vector<ParamDecl>& params,
                            size_t body_begin, size_t body_end) {
    StringSet ptr_params;
    for (const ParamDecl& p : params) {
      if (p.is_pointer) ptr_params.insert(p.name);
    }
    if (ptr_params.empty()) return;
    for (size_t j = body_begin + 1; j + 1 < body_end; ++j) {
      if (c.toks[j].kind != TokenKind::kPunct ||
          kCmpOps.count(c.toks[j].text) == 0) {
        continue;
      }
      if (c.IsIdent(j - 1) && c.IsIdent(j + 1) &&
          ptr_params.count(c.toks[j - 1].text) != 0 &&
          ptr_params.count(c.toks[j + 1].text) != 0) {
        report(c.Line(j), "cmp",
               "pointer comparison ('" + c.toks[j - 1].text + " " +
                   c.toks[j].text + " " + c.toks[j + 1].text +
                   "') orders by allocation address, which differs "
                   "between runs; compare stable ids instead");
      }
    }
  };
  for (const FunctionInfo& fn : parsed.functions) {
    check_ptr_cmps(fn.params, fn.body_begin, fn.body_end);
  }
  for (const LambdaInfo& L : parsed.lambdas) {
    check_ptr_cmps(L.params, L.body_begin, L.body_end);
  }
}

}  // namespace

void CheckFlow(const std::string& path, const std::vector<Token>& tokens,
               const ParsedFile& parsed, std::vector<Finding>* out) {
  const TokenCursor c(tokens);
  if (RuleInScope("C4", path)) CheckC4(path, c, parsed, out);
  if (RuleInScope("D7", path)) CheckD7(path, c, parsed, out);
}

}  // namespace lint
}  // namespace vcmp
