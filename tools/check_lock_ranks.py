#!/usr/bin/env python3
"""Lock-class lint: every versa::Mutex must name a registered LockClass.

The lock-order machinery (src/util/lock_order.h) only works when every
mutex carries a LockClass rank — a versa::Mutex default-constructed or
tied to an unregistered class silently opts out of deadlock checking.
This lint makes that structural:

  1. Collects the registered classes: `extern const LockClass kLockRank*`
     declarations in src/util/lock_order.h.
  2. Finds every `versa::Mutex` / `versa::RecursiveMutex` variable
     declaration in src/**/*.{h,cpp} and requires it to be constructed from a registered
     `lock_order::kLockRank*` — either inline
     (`versa::Mutex mu_{lock_order::kLockRankFoo};`) or in a constructor
     initializer list (`: mu_(lock_order::kLockRankFoo)`) found anywhere
     in the declaring directory.
  3. Flags raw std::mutex / std::recursive_mutex / std::shared_mutex
     outside the annotation layer (util/annotated_sync.h) — those bypass
     lock-order tracking.
  4. Checks the definitions in src/util/lock_order.cpp: every declared
     class must be defined, and ranks must be *unique* — two classes
     sharing a rank would let the checker pass an acquisition order that
     deadlocks (neither rank is strictly above the other).

Declarations are matched in both initializer spellings — brace
(`versa::Mutex mu_{lock_order::kLockRankFoo};`) and parenthesis
(`versa::Mutex mu(lock_order::kLockRankFoo);`) — so a
namespace-scope paren-initialized mutex cannot silently skip the check.

Exits 1 listing every offender; the CI build step runs this before
compiling anything. `--self-test` runs the lint's own fixture suite
(declarations that must pass and must fail, covering both mutex
types and both initializer spellings) and exits nonzero if the lint has
lost coverage.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
LOCK_ORDER_H = os.path.join(SRC, "util", "lock_order.h")

# Files allowed to mention std::mutex directly: the annotation layer that
# wraps it, and the lock-order implementation itself.
RAW_MUTEX_ALLOWLIST = {
    os.path.join("util", "annotated_sync.h"),
    os.path.join("util", "lock_order.h"),
    os.path.join("util", "lock_order.cpp"),
}

# Both initializer spellings are captured: {…} and (…). A bare
# declaration (no initializer) must find its rank in a constructor
# initializer list, or it is flagged.
DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:versa::)?(?:Recursive)?Mutex\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?P<init>\{[^}]*\}|\([^)]*\))?\s*;",
)
RANK_USE_RE = re.compile(r"lock_order::(?P<cls>kLockRank\w+)")
RAW_MUTEX_RE = re.compile(r"\bstd::(?:recursive_|shared_)?mutex\b")


LOCK_ORDER_CPP = os.path.join(SRC, "util", "lock_order.cpp")


def registered_classes():
    classes = set()
    with open(LOCK_ORDER_H, encoding="utf-8") as f:
        for line in f:
            m = re.search(r"extern\s+const\s+LockClass\s+(kLockRank\w+)", line)
            if m:
                classes.add(m.group(1))
    return classes


def defined_ranks():
    """kLockRank* -> rank int, parsed from the lock_order.cpp definitions."""
    with open(LOCK_ORDER_CPP, encoding="utf-8") as f:
        text = strip_comments(f.read())
    ranks = {}
    def_re = re.compile(
        r"const\s+LockClass\s+(?P<cls>kLockRank\w+)\s*=\s*"
        r'\{\s*"(?P<name>[^"]+)"\s*,\s*(?P<rank>\d+)')
    for m in def_re.finditer(text):
        ranks[m.group("cls")] = int(m.group("rank"))
    return ranks


def rank_errors(classes):
    """Missing definitions and duplicate ranks across registered classes."""
    errors = []
    ranks = defined_ranks()
    for cls in sorted(classes - ranks.keys()):
        errors.append(
            f"util/lock_order.cpp: declared class {cls} has no parseable "
            f"definition")
    by_rank = {}
    for cls, rank in ranks.items():
        by_rank.setdefault(rank, []).append(cls)
    for rank, members in sorted(by_rank.items()):
        if len(members) > 1:
            errors.append(
                f"util/lock_order.cpp: rank {rank} is shared by "
                f"{', '.join(sorted(members))} — ranks must be unique so "
                f"every cross-class acquisition order is decidable")
    return errors


def source_files():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith((".h", ".cpp")):
                yield os.path.join(root, name)


def strip_comments(text):
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return text


def ctor_init_ranks(path):
    """Ranks used in constructor initializer lists near `path`.

    A member like `Shard() : mutex(lock_order::kLockRankQueue) {}` or an
    out-of-line constructor in the matching .cpp both count; scan the
    declaring file plus its sibling translation unit.
    """
    candidates = [path]
    stem, ext = os.path.splitext(path)
    sibling = stem + (".cpp" if ext == ".h" else ".h")
    if os.path.exists(sibling):
        candidates.append(sibling)
    inits = {}
    # mutex_name(lock_order::kLockRankFoo) — in an initializer list, i.e.
    # preceded by ':' or ',' somewhere before on the same statement.
    init_re = re.compile(
        r"[:,]\s*(?P<name>[A-Za-z_]\w*)\s*\(\s*lock_order::(?P<cls>kLockRank\w+)\s*\)"
    )
    for candidate in candidates:
        with open(candidate, encoding="utf-8") as f:
            text = strip_comments(f.read())
        for m in init_re.finditer(text):
            inits.setdefault(m.group("name"), set()).add(m.group("cls"))
    return inits


def decl_errors(rel, text, classes, inits_provider):
    """Lint the mutex declarations of one (comment-stripped) source text.

    `inits_provider` is called lazily (at most once) to get the
    constructor-initializer-list ranks for bare declarations.
    """
    errors = []
    inits = None
    for i, line in enumerate(text.splitlines(), 1):
        m = DECL_RE.match(line)
        if m is None:
            continue
        # References and parameters don't construct a mutex.
        if "&" in line.split(";")[0]:
            continue
        name = m.group("name")
        init = m.group("init") or ""
        used = RANK_USE_RE.search(init)
        if used:
            if used.group("cls") not in classes:
                errors.append(
                    f"{rel}:{i}: mutex '{name}' uses unregistered lock "
                    f"class {used.group('cls')}")
            continue
        if inits is None:
            inits = inits_provider()
        ctor_classes = inits.get(name, set())
        unknown = ctor_classes - classes
        if unknown:
            errors.append(
                f"{rel}:{i}: mutex '{name}' uses unregistered lock "
                f"class {', '.join(sorted(unknown))}")
        elif not ctor_classes:
            errors.append(
                f"{rel}:{i}: mutex '{name}' is not constructed from a "
                f"registered lock_order::kLockRank* class")
    return errors


def raw_mutex_errors(rel, text):
    errors = []
    for i, line in enumerate(text.splitlines(), 1):
        if RAW_MUTEX_RE.search(line):
            errors.append(
                f"{rel}:{i}: raw std::mutex bypasses lock-order "
                f"tracking — use versa::Mutex with a LockClass")
    return errors


# --self-test fixtures: (description, source line(s), ctor-initializer
# ranks, expected error substring or None). The synthetic class set is
# {kLockRankAlpha}; kLockRankBogus is deliberately unregistered. Every
# mutex type × initializer spelling that must stay covered is pinned here
# — if a regex change reopens the paren-init hole, the
# "must flag" fixtures stop failing and the self-test exits 1.
SELF_TEST_CLASSES = {"kLockRankAlpha"}
SELF_TEST_FIXTURES = [
    ("brace-init Mutex with registered rank passes",
     "versa::Mutex mu_{lock_order::kLockRankAlpha};", {}, None),
    ("paren-init Mutex with registered rank passes",
     "versa::Mutex mu_(lock_order::kLockRankAlpha);", {}, None),
    ("paren-init RecursiveMutex with registered rank passes",
     "versa::RecursiveMutex mu(lock_order::kLockRankAlpha);", {}, None),
    ("brace-init RecursiveMutex with registered rank passes",
     "mutable versa::RecursiveMutex mu_{lock_order::kLockRankAlpha};",
     {}, None),
    ("bare Mutex with ctor-initializer rank passes",
     "versa::Mutex mu_;", {"mu_": {"kLockRankAlpha"}}, None),
    ("reference declarations are ignored",
     "versa::Mutex& other = peer.mu;", {}, None),
    ("default-constructed Mutex is flagged",
     "versa::Mutex mu_;", {},
     "not constructed from a registered"),
    ("brace-init with unregistered rank is flagged",
     "versa::Mutex mu_{lock_order::kLockRankBogus};", {},
     "unregistered lock class kLockRankBogus"),
    ("paren-init Mutex with unregistered rank is flagged",
     "versa::Mutex mu(lock_order::kLockRankBogus);", {},
     "unregistered lock class kLockRankBogus"),
    ("ctor-initializer with unregistered rank is flagged",
     "versa::Mutex mu_;", {"mu_": {"kLockRankBogus"}},
     "unregistered lock class kLockRankBogus"),
]


def run_self_test():
    failures = []
    for description, source, inits, expected in SELF_TEST_FIXTURES:
        errors = decl_errors("fixture", source, SELF_TEST_CLASSES,
                             lambda inits=inits: inits)
        if expected is None:
            if errors:
                failures.append(f"{description}: unexpected {errors}")
        elif not any(expected in error for error in errors):
            failures.append(
                f"{description}: expected an error containing "
                f"'{expected}', got {errors or 'no errors'}")
    raw = raw_mutex_errors("fixture", "std::mutex raw_;")
    if not any("bypasses lock-order" in error for error in raw):
        failures.append("raw std::mutex fixture was not flagged")
    if failures:
        print("check_lock_ranks --self-test: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_lock_ranks --self-test: OK "
          f"({len(SELF_TEST_FIXTURES) + 1} fixtures)")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return run_self_test()

    classes = registered_classes()
    if not classes:
        print("check_lock_ranks: no LockClass declarations found in "
              "src/util/lock_order.h", file=sys.stderr)
        return 1

    errors = rank_errors(classes)
    for path in source_files():
        rel = os.path.relpath(path, SRC)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments(raw)

        if rel not in RAW_MUTEX_ALLOWLIST:
            errors.extend(raw_mutex_errors(rel, text))
        errors.extend(
            decl_errors(rel, text, classes,
                        lambda path=path: ctor_init_ranks(path)))

    if errors:
        print("check_lock_ranks: FAIL — every versa::Mutex must name a "
              "registered LockClass rank:", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1

    print(f"check_lock_ranks: OK ({len(classes)} registered lock classes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
