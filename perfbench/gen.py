"""Seeded workload generator for the funcdiag benchmark.

Each workload is a schema (`.fd`) and a script (`.fdm`) as DSL text. The
script is a seed section, which builds a valid starting state, followed by
a measured section. Every measured statement carries `expect accept` or
`expect reject`, derived from the generator's own model of the data and
never from the engine or the oracle. The same seed and scale give
byte-identical text.

Write a workload to disk and replay it by hand:

    python3 perfbench/gen.py --workload geo-accept --seed 1 --out /tmp/geo
    funcdiag run /tmp/geo/geo-accept.fd /tmp/geo/geo-accept.fdm --json
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

GEOGRAPHY_SCHEMA = """\
schema Geography ;

set CONTINENTS {
    name Continent : text ;
}

set MOUNTAIN_RANGES {
    name Range : text ;
    Continent -> CONTINENTS ;
}

set MOUNT_SUBRANGES {
    name Subrange : text ;
    Range -> MOUNTAIN_RANGES ;
}

set MOUNT_GROUPS {
    name MountGroup : text ;
    Subrange -> MOUNT_SUBRANGES ;
}

set MOUNTAINS {
    name Mountain : text ;
    Group -> MOUNT_GROUPS ? ;
}

set RIVERS {
    name River : text ;
    Continent -> CONTINENTS ;
    Mountain -> MOUNTAINS ? ;
}

constraint GeoContinent commutative on RIVERS {
    left = Continent . Range . Subrange . Group . Mountain ;
    right = Continent ;
    message = "The mountain a river springs from must lie on the river's own continent (left={left}, right={right})" ;
}
"""

NEIGHBORS_SCHEMA = """\
schema Neighbors ;

set COUNTRIES {
    name Country : text ;
    FrontierColor : text ? ;
}

set NEIGHBOR_COUNTRIES {
    name Pair : text ;
    Country -> COUNTRIES ;
    Neighbor -> COUNTRIES ;
}

constraint DistinctFrontiers anticommutative on NEIGHBOR_COUNTRIES {
    left = FrontierColor . Country ;
    right = FrontierColor . Neighbor ;
    message = "Neighbor countries may not share frontier color {left}" ;
}
"""

MEASURED_MARKER = "// measured section"

CONTINENTS = 6
SUBRANGES_PER_RANGE = 5
GROUPS_PER_SUBRANGE = 5
MOUNTAINS_PER_10_GROUPS = 33
RIVERS_PER_MOUNTAIN = 4
COLORS = tuple(f"color-{i:02d}" for i in range(48))
PAIRS_PER_COUNTRY = 10

# Full-size shapes, before `scale` shrinks them.
RANGES = 60
GEO_ACCEPT_STATEMENTS = 12_000
GEO_REJECT_STATEMENTS = 1_000
COUNTRIES = 2_000
NEIGHBORS_STATEMENTS = 1_000


@dataclass(frozen=True)
class Workload:
    name: str
    schema: str
    script: str
    seed_statements: int
    measured_statements: int


class _Bag:
    """List with O(1) uniform choice and removal; order depends only on the
    sequence of calls, so it is deterministic for a seeded generator."""

    def __init__(self) -> None:
        self.items: list = []
        self.where: dict = {}

    def add(self, item) -> None:
        self.where[item] = len(self.items)
        self.items.append(item)

    def remove(self, item) -> None:
        i = self.where.pop(item)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.where[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


def _balanced(rng: random.Random, children: int, parents: int) -> list[int]:
    """Parent index per child, every parent getting the same share (+-1)."""
    assignment = [i % parents for i in range(children)]
    rng.shuffle(assignment)
    return assignment


def _expect(accept: bool) -> str:
    return "expect accept" if accept else "expect reject"


# ---------------------------------------------------------------------------
# Geography
# ---------------------------------------------------------------------------


class _Geography:
    """Model of the generated geography: every link, plus how many rivers
    hang below each mountain. Seeded rivers always spring from a mountain
    on their own continent, and the model only records accepted writes,
    so that invariant holds throughout."""

    def __init__(self, rng: random.Random, scale: float, lines: list[str]):
        ranges = max(CONTINENTS, round(RANGES * scale))
        subranges = ranges * SUBRANGES_PER_RANGE
        groups = subranges * GROUPS_PER_SUBRANGE
        mountains = groups * MOUNTAINS_PER_10_GROUPS // 10
        self.range_cont = _balanced(rng, ranges, CONTINENTS)
        self.sub_range = _balanced(rng, subranges, ranges)
        self.group_sub = _balanced(rng, groups, subranges)
        self.mount_group = _balanced(rng, mountains, groups)
        self.river_mount: dict[int, int] = {}
        self.rivers = _Bag()
        self.mount_rivers = [0] * mountains
        self.next_river = 0

        self.range_subs = [[] for _ in range(ranges)]
        for s, r in enumerate(self.sub_range):
            self.range_subs[r].append(s)
        self.sub_groups = [[] for _ in range(subranges)]
        for g, s in enumerate(self.group_sub):
            self.sub_groups[s].append(g)
        self.group_mounts = [[] for _ in range(groups)]
        for m, g in enumerate(self.mount_group):
            self.group_mounts[g].append(m)

        for c in range(CONTINENTS):
            lines.append(f'insert CONTINENTS (Continent = "Continent {c}") as c{c} ;')
        for r, c in enumerate(self.range_cont):
            lines.append(
                f'insert MOUNTAIN_RANGES (Range = "Range {r}", Continent = @c{c}) as r{r} ;'
            )
        for s, r in enumerate(self.sub_range):
            lines.append(
                f'insert MOUNT_SUBRANGES (Subrange = "Subrange {s}", Range = @r{r}) as s{s} ;'
            )
        for g, s in enumerate(self.group_sub):
            lines.append(
                f'insert MOUNT_GROUPS (MountGroup = "Group {g}", Subrange = @s{s}) as g{g} ;'
            )
        for m, g in enumerate(self.mount_group):
            lines.append(f'insert MOUNTAINS (Mountain = "Mountain {m}", Group = @g{g}) as m{m} ;')
        for m in _balanced(rng, mountains * RIVERS_PER_MOUNTAIN, mountains):
            lines.append(self.insert_river(m, self.cont_of_mountain(m)) + " ;")

    def cont_of_group(self, g: int) -> int:
        return self.range_cont[self.sub_range[self.group_sub[g]]]

    def cont_of_mountain(self, m: int) -> int:
        return self.cont_of_group(self.mount_group[m])

    def insert_river(self, m: int, c: int) -> str:
        """Insert statement for a river; records it only when consistent."""
        v = self.next_river
        self.next_river += 1
        head = f'insert RIVERS (River = "River {v}", Continent = @c{c}, Mountain = @m{m})'
        if c != self.cont_of_mountain(m):
            return head
        self.river_mount[v] = m
        self.rivers.add(v)
        self.mount_rivers[m] += 1
        return f"{head} as v{v}"

    def rivers_below_group(self, g: int) -> int:
        return sum(self.mount_rivers[m] for m in self.group_mounts[g])

    def rivers_below_sub(self, s: int) -> int:
        return sum(self.rivers_below_group(g) for g in self.sub_groups[s])

    def rivers_below_range(self, r: int) -> int:
        return sum(self.rivers_below_sub(s) for s in self.range_subs[r])

    def other_continent(self, rng: random.Random, c: int) -> int:
        return (c + 1 + rng.randrange(CONTINENTS - 1)) % CONTINENTS


def _geo_accept_section(rng: random.Random, geo: _Geography, count: int) -> list[str]:
    """Write-heavy, mostly accepted mix over small fanouts."""
    groups_by_cont: list[list[int]] = [[] for _ in range(CONTINENTS)]
    for g in range(len(geo.group_sub)):
        groups_by_cont[geo.cont_of_group(g)].append(g)
    mountains = len(geo.mount_group)
    lines: list[str] = []
    while len(lines) < count:
        roll = rng.random()
        if roll < 0.60:
            m = rng.randrange(mountains)
            c = geo.cont_of_mountain(m)
            wrong = rng.random() < 0.10
            if wrong:
                c = geo.other_continent(rng, c)
            lines.append(f"{geo.insert_river(m, c)} {_expect(not wrong)} ;")
        elif roll < 0.85:
            v = geo.rivers.choice(rng)
            old = geo.river_mount[v]
            m = (old + 1 + rng.randrange(mountains - 1)) % mountains
            geo.mount_rivers[old] -= 1
            geo.mount_rivers[m] += 1
            geo.river_mount[v] = m
            c = geo.cont_of_mountain(m)
            lines.append(
                f"update @v{v} set Continent = @c{c}, Mountain = @m{m} expect accept ;"
            )
        elif roll < 0.90:
            v = geo.rivers.choice(rng)
            geo.rivers.remove(v)
            geo.mount_rivers[geo.river_mount.pop(v)] -= 1
            lines.append(f"delete @v{v} expect accept ;")
        elif roll < 0.95:
            m = rng.randrange(mountains)
            old = geo.mount_group[m]
            candidates = groups_by_cont[geo.cont_of_group(old)]
            g = candidates[rng.randrange(len(candidates))]
            if g == old:
                continue
            geo.group_mounts[old].remove(m)
            geo.group_mounts[g].append(m)
            geo.mount_group[m] = g
            lines.append(f"update @m{m} set Group = @g{g} expect accept ;")
        else:
            m = rng.randrange(mountains)
            if geo.mount_rivers[m] == 0:
                continue
            lines.append(f"delete @m{m} expect reject ;")
    return lines


def _geo_reject_section(rng: random.Random, geo: _Geography, count: int) -> list[str]:
    """Interior-link moves: four in five cross a continent and strand every
    river below the moved row; the rest stay on the continent and pass.
    One statement in twenty is a consistent river insert, so the domain-row
    check runs here too and its per-layer time is measured, not zero."""
    mountains = len(geo.mount_group)
    lines: list[str] = []
    while len(lines) < count:
        if rng.random() < 0.05:
            m = rng.randrange(mountains)
            lines.append(f"{geo.insert_river(m, geo.cont_of_mountain(m))} expect accept ;")
            continue
        within = rng.random() < 0.20
        level = rng.randrange(2 if within else 3)
        if level == 0:
            g = rng.randrange(len(geo.group_sub))
            here = geo.cont_of_group(g)
            s = rng.randrange(len(geo.sub_range))
            there = geo.range_cont[geo.sub_range[s]]
            if s == geo.group_sub[g] or (there == here) != within:
                continue
            accept = within or geo.rivers_below_group(g) == 0
            if accept:
                geo.sub_groups[geo.group_sub[g]].remove(g)
                geo.sub_groups[s].append(g)
                geo.group_sub[g] = s
            lines.append(f"update @g{g} set Subrange = @s{s} {_expect(accept)} ;")
        elif level == 1:
            s = rng.randrange(len(geo.sub_range))
            here = geo.range_cont[geo.sub_range[s]]
            r = rng.randrange(len(geo.range_cont))
            there = geo.range_cont[r]
            if r == geo.sub_range[s] or (there == here) != within:
                continue
            accept = within or geo.rivers_below_sub(s) == 0
            if accept:
                geo.range_subs[geo.sub_range[s]].remove(s)
                geo.range_subs[r].append(s)
                geo.sub_range[s] = r
            lines.append(f"update @s{s} set Range = @r{r} {_expect(accept)} ;")
        else:
            r = rng.randrange(len(geo.range_cont))
            c = geo.other_continent(rng, geo.range_cont[r])
            accept = geo.rivers_below_range(r) == 0
            if accept:
                geo.range_cont[r] = c
            lines.append(f"update @r{r} set Continent = @c{c} {_expect(accept)} ;")
    return lines


# ---------------------------------------------------------------------------
# Neighbors
# ---------------------------------------------------------------------------


class _Neighbors:
    """Model of a properly coloured neighbour graph: one pair per
    unordered country pair, never a country paired with itself."""

    def __init__(self, rng: random.Random, scale: float, lines: list[str]):
        countries = max(50, round(COUNTRIES * scale))
        self.countries = countries
        self.adj: list[list[int]] = [[] for _ in range(countries)]
        self.pair_ends: dict[int, tuple[int, int]] = {}
        self.pairs = _Bag()
        self.linked: set[tuple[int, int]] = set()
        self.next_pair = 0
        edges: list[tuple[int, int]] = []
        while len(edges) < countries * PAIRS_PER_COUNTRY:
            u, w = rng.randrange(countries), rng.randrange(countries)
            key = (min(u, w), max(u, w))
            if u == w or key in self.linked:
                continue
            self.linked.add(key)
            self.adj[u].append(w)
            self.adj[w].append(u)
            edges.append((u, w))

        self.color: list[str] = [""] * countries
        order = list(range(countries))
        rng.shuffle(order)
        for u in order:
            used = {self.color[w] for w in self.adj[u]}
            free = [c for c in COLORS if c not in used]
            if not free:
                raise ValueError(f"country {u} has a neighbour of every colour")
            self.color[u] = free[rng.randrange(len(free))]

        for u in range(countries):
            lines.append(
                f'insert COUNTRIES (Country = "Country {u}", FrontierColor = "{self.color[u]}") as k{u} ;'
            )
        for u, w in edges:
            lines.append(self._pair_statement(u, w) + " ;")

    def _pair_statement(self, u: int, w: int) -> str:
        p = self.next_pair
        self.next_pair += 1
        self.pair_ends[p] = (u, w)
        self.pairs.add(p)
        return (
            f'insert NEIGHBOR_COUNTRIES (Pair = "Pair {p}", Country = @k{u},'
            f" Neighbor = @k{w}) as p{p}"
        )

    def insert_pair(self, u: int, w: int) -> str:
        self.linked.add((min(u, w), max(u, w)))
        self.adj[u].append(w)
        self.adj[w].append(u)
        return self._pair_statement(u, w)

    def delete_pair(self, p: int) -> None:
        u, w = self.pair_ends.pop(p)
        self.pairs.remove(p)
        self.linked.discard((min(u, w), max(u, w)))
        self.adj[u].remove(w)
        self.adj[w].remove(u)


def _neighbors_section(rng: random.Random, nb: _Neighbors, count: int) -> list[str]:
    """Recolours, mostly to a free colour, plus pair inserts and deletes."""
    lines: list[str] = []
    while len(lines) < count:
        roll = rng.random()
        u = rng.randrange(nb.countries)
        if roll < 0.70:
            used = {nb.color[w] for w in nb.adj[u]}
            used.add(nb.color[u])
            free = [c for c in COLORS if c not in used]
            if not free:
                continue
            nb.color[u] = free[rng.randrange(len(free))]
            lines.append(f'update @k{u} set FrontierColor = "{nb.color[u]}" expect accept ;')
        elif roll < 0.85:
            if not nb.adj[u]:
                continue
            clash = nb.color[nb.adj[u][rng.randrange(len(nb.adj[u]))]]
            lines.append(f'update @k{u} set FrontierColor = "{clash}" expect reject ;')
        elif roll < 0.925:
            w = rng.randrange(nb.countries)
            if u == w or (min(u, w), max(u, w)) in nb.linked or nb.color[u] == nb.color[w]:
                continue
            lines.append(f"{nb.insert_pair(u, w)} expect accept ;")
        else:
            p = nb.pairs.choice(rng)
            nb.delete_pair(p)
            lines.append(f"delete @p{p} expect accept ;")
    return lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _geo_accept(rng: random.Random, scale: float, seed_lines: list[str]) -> tuple[str, list[str]]:
    geo = _Geography(rng, scale, seed_lines)
    return GEOGRAPHY_SCHEMA, _geo_accept_section(
        rng, geo, max(100, round(GEO_ACCEPT_STATEMENTS * scale))
    )


def _geo_reject(rng: random.Random, scale: float, seed_lines: list[str]) -> tuple[str, list[str]]:
    geo = _Geography(rng, scale, seed_lines)
    return GEOGRAPHY_SCHEMA, _geo_reject_section(
        rng, geo, max(100, round(GEO_REJECT_STATEMENTS * scale))
    )


def _neighbors_recolor(
    rng: random.Random, scale: float, seed_lines: list[str]
) -> tuple[str, list[str]]:
    nb = _Neighbors(rng, scale, seed_lines)
    return NEIGHBORS_SCHEMA, _neighbors_section(
        rng, nb, max(100, round(NEIGHBORS_STATEMENTS * scale))
    )


WORKLOADS = {
    "geo-accept": _geo_accept,
    "geo-reject": _geo_reject,
    "neighbors-recolor": _neighbors_recolor,
}


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Schema and script text of one workload; deterministic in (name, seed, scale)."""
    rng = random.Random(seed)
    seed_lines: list[str] = []
    schema, measured = WORKLOADS[name](rng, scale, seed_lines)
    script = "\n".join(
        [f"// workload {name}, seed {seed}, scale {scale}", *seed_lines, MEASURED_MARKER, *measured, ""]
    )
    return Workload(name, schema, script, len(seed_lines), len(measured))


def write(workload: Workload, out_dir: Path) -> tuple[Path, Path]:
    """Write the `.fd`/`.fdm` pair that `funcdiag run` replays."""
    out_dir.mkdir(parents=True, exist_ok=True)
    schema_path = out_dir / f"{workload.name}.fd"
    script_path = out_dir / f"{workload.name}.fdm"
    schema_path.write_text(workload.schema, encoding="utf-8")
    script_path.write_text(workload.script, encoding="utf-8")
    return schema_path, script_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write(generate(args.workload, args.seed), args.out):
        print(path)


if __name__ == "__main__":
    main()
