#!/usr/bin/env python3
"""Symbolize a host_profile sample file and attribute its CPU time.

    python3 tools/host_profile/resolve.py PROFILE [--under REGEX]
        [--exclude REGEX] [--top N] [--site NAME=REGEX ...]

PROFILE is what libhost_profile.so wrote (see sampler.cc). Every
address is mapped through the profile's copy of /proc/self/maps to
its object file, then symbolized with `addr2line -i`, which expands
inlined calls into frames of their own. In an object without debug
info the nearest `nm` symbol stands in, prefixed with the object's
name; in a stripped library that is only the nearest export. No
debugger or `perf` is needed.

A frame reads `function @ file:line`. --under keeps only samples
whose stack holds a frame matching REGEX (e.g. `measureWindow`, the
timed window of e2e_core); --exclude drops samples with one. The
report prints, as % of kept samples:
  - self time by function (the innermost frame);
  - self time by namespace (that function's first `::` component);
  - self time by the innermost frame in the project's own sources
    (paths containing `/src/`), i.e. the line that called into a
    library or a container;
  - inclusive time by function (anywhere on the stack);
  - for each --site NAME=REGEX (e.g. `ring=ShardMap::shardOf`), the
    share of samples with a matching frame anywhere on the stack
    (inclusive), and the share whose innermost frame that matches or
    lies in the project's sources matches (self: the site's own code
    and the library code inlined into it, such as a `std::map` walk).
"""

import argparse
import bisect
import collections
import functools
import re
import subprocess
import sys

# Path marker of the project's own sources.
SRC = "/src/"


def parse(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("maps "):
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[2]:
                    continue
                lo, hi = (int(x, 16) for x in parts[1].split("-"))
                maps.append((lo, hi, int(parts[3], 16), parts[6]
                             if len(parts) > 6 else parts[-1]))
            elif line.startswith("s "):  # a bare "s" was never filled
                samples.append([int(x, 16) for x in line.split()[1:]])
    maps.sort()
    return maps, samples


@functools.lru_cache(maxsize=None)
def segments(obj):
    """(file offset, vaddr, size) of each PT_LOAD segment of @p obj."""
    try:
        out = subprocess.run(["readelf", "-lW", obj], capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16),
                         int(parts[5], 16)))
    return segs


def load_symbols(obj):
    """Sorted (start, end, name) of @p obj's function symbols."""
    syms = []
    for flags in (["--defined-only"], ["-D", "--defined-only"]):
        try:
            out = subprocess.run(["nm", "-C", "-S", "-n"] + flags + [obj],
                                 capture_output=True, text=True).stdout
        except OSError:
            return []
        for line in out.splitlines():
            m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwWi] (.*)$", line)
            if m:
                start = int(m.group(1), 16)
                syms.append((start, start + int(m.group(2), 16),
                             m.group(3)))
        if syms:
            break
    syms.sort()
    return syms


def addr2line(obj, vaddrs):
    """{vaddr: [(function, file:line), ...]}, innermost inline first."""
    try:
        out = subprocess.run(
            ["addr2line", "-e", obj, "-f", "-C", "-i", "-a"],
            input="".join("%x\n" % a for a in vaddrs),
            capture_output=True, text=True).stdout
    except OSError:
        return {}
    chains, cur, lines = {}, None, out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = chains.setdefault(int(lines[i], 16), [])
            i += 1
            continue
        loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
        if cur is not None and lines[i] != "??":
            cur.append((lines[i], loc.split(" (discriminator")[0]))
        i += 2
    return chains


class Symbolizer:
    """Maps sampled addresses to inline chains of (function, line)."""

    def __init__(self, maps, samples):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.frames = {}
        wanted = collections.defaultdict(set)
        located = {}
        for stack in samples:
            for i, addr in enumerate(stack):
                # A return address points past its call: use the call.
                key = addr - 1 if i > 0 else addr
                if key not in located:
                    located[key] = self.locate(key)
                    path, vaddr = located[key]
                    if vaddr is not None:
                        wanted[path].add(vaddr)
        resolved = {}
        for path, vaddrs in wanted.items():
            chains = addr2line(path, sorted(vaddrs))
            syms = load_symbols(path)
            starts = [sym[0] for sym in syms]
            obj = path.rsplit("/", 1)[-1]
            for vaddr in vaddrs:
                chain = chains.get(vaddr) or []
                if all(loc.startswith("??") for _, loc in chain):
                    # No debug info: the nearest symbol, which in a
                    # stripped library is only the nearest export.
                    chain = [("[%s] %s" % (obj, chain[0][0]), "??:0")] \
                        if chain else []
                    j = bisect.bisect_right(starts, vaddr) - 1
                    if not chain and j >= 0 and \
                            vaddr < max(syms[j][1], syms[j][0] + 1):
                        chain = [("[%s] %s" % (obj, syms[j][2]), "??:0")]
                resolved[(path, vaddr)] = chain
        for key, (path, vaddr) in located.items():
            chain = resolved.get((path, vaddr)) if vaddr is not None \
                else None
            self.frames[key] = chain or [
                ("[%s]" % path.rsplit("/", 1)[-1] if path else "??",
                 "??:0")]

    def locate(self, addr):
        """(object path, link-time address) of a runtime address."""
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[i][1]:
            return None, None
        lo, _, offset, path = self.maps[i]
        if not path.startswith("/"):
            return path, None
        file_off = addr - lo + offset
        for seg_off, seg_vaddr, size in segments(path):
            if seg_off <= file_off < seg_off + size:
                return path, file_off - seg_off + seg_vaddr
        return path, None

    def stack(self, addrs):
        """The stack's (function, line) frames, innermost first, with
        inlined calls expanded."""
        out = []
        for i, addr in enumerate(addrs):
            out.extend(self.frames[addr - 1 if i > 0 else addr])
        return out


def strip_templates(name):
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def namespace(name):
    """First `::` component of a demangled function name."""
    if name.startswith("["):  # an object without debug info
        return name[:name.index("]") + 1]
    if name == "??":
        return name
    base = strip_templates(name)
    paren = base.find("(")
    if paren > 0:
        base = base[:paren]
    base = base.split()[-1] if base.split() else base
    parts = base.split("::")
    return parts[0] if len(parts) > 1 else "(global)"


def table(title, counter, total, top):
    print("\n%s (%% of %d samples)" % (title, total))
    for name, n in counter.most_common(top):
        print("  %6.2f%%  %s" % (100.0 * n / total, name[:160]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("profile")
    p.add_argument("--under", help="keep samples with a matching frame")
    p.add_argument("--exclude", help="drop samples with a matching frame")
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--site", action="append", default=[],
                   metavar="NAME=REGEX",
                   help="report the share of stacks matching REGEX")
    args = p.parse_args()

    maps, samples = parse(args.profile)
    sym = Symbolizer(maps, samples)
    under = re.compile(args.under) if args.under else None
    exclude = re.compile(args.exclude) if args.exclude else None
    sites = []
    for spec in args.site:
        label, _, regex = spec.partition("=")
        sites.append((label, re.compile(regex or label)))

    self_fn = collections.Counter()
    self_ns = collections.Counter()
    self_line = collections.Counter()
    incl = collections.Counter()
    site_hits = collections.Counter()
    site_self = collections.Counter()
    kept = 0
    for stack in samples:
        frames = ["%s @ %s" % f for f in sym.stack(stack)]
        if under and not any(under.search(f) for f in frames):
            continue
        if exclude and any(exclude.search(f) for f in frames):
            continue
        kept += 1
        leaf = sym.stack(stack[:1])[0][0]
        self_fn[leaf] += 1
        self_ns[namespace(leaf)] += 1
        for f in frames:
            fn, _, loc = f.rpartition(" @ ")
            if SRC in loc:
                self_line["%s (%s)" % (loc.split(SRC, 1)[1],
                                       strip_templates(fn)[:60])] += 1
                break
        for fn in {f.rpartition(" @ ")[0] for f in frames}:
            incl[fn] += 1
        for label, regex in sites:
            if any(regex.search(f) for f in frames):
                site_hits[label] += 1
            # Self: from the leaf out, the first frame that matches or
            # lies in the project's sources matches.
            for f in frames:
                if regex.search(f):
                    site_self[label] += 1
                    break
                if SRC in f.rpartition(" @ ")[2]:
                    break

    print("%d samples, %d kept" % (len(samples), kept))
    if kept == 0:
        return 1
    table("Self time by function", self_fn, kept, args.top)
    table("Self time by namespace", self_ns, kept, args.top)
    table("Self time by innermost project source line", self_line, kept,
          args.top)
    table("Inclusive time by function", incl, kept, args.top)
    if sites:
        print("\nSites (%% of %d samples): inclusive, self" % kept)
        for label, _ in sites:
            print("  %6.2f%%  %6.2f%%  %s" % (
                100.0 * site_hits[label] / kept,
                100.0 * site_self[label] / kept, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
