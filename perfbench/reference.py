"""Expected answers computed apart from pseudolink.

Nothing here imports the library.  Determinants of rational and ramified
symbols come from continued fractions; pseudotwists are replaced by the
integer tangles they resolve to (Reidemeister II); family pseudodeterminants
come from the closed forms of the family table, restated here for the rows
the acceptance suite requires to match; colorability follows from the
determinants by the gcd rule; JSON documents are validated against the
shipped schemas by a small validator for the keywords those schemas use.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


class CheckFailed(AssertionError):
    """An output of the program disagrees with the expected answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Continued fractions and tangle fractions


def continued_fraction(word: Sequence[int]) -> Fraction:
    """Fraction of the rational tangle word a1 a2 ... an: an + 1/(... + 1/a1)."""
    value = Fraction(word[0])
    for entry in word[1:]:
        if value == 0:
            raise ValueError(f"word {list(word)} passes through the zero tangle")
        value = entry + 1 / value
    return value


def rational_det(word: Sequence[int]) -> int:
    """Determinant of the numerator closure of a rational word."""
    return abs(continued_fraction(word).numerator)


def ramified_det(parts: Sequence[Sequence[int]]) -> int:
    """Determinant of the ramification (w1),(w2),... of rational words.

    Each part is transposed and the transposes are summed; with p_i/q_i the
    fraction of part i the numerator closure has determinant
    |sum_i q_i * prod_{j != i} p_j|.
    """
    fracs = [continued_fraction(w) for w in parts]
    total = 0
    for i, f in enumerate(fracs):
        term = f.denominator
        for j, g in enumerate(fracs):
            if j != i:
                term *= g.numerator
        total += term
    return abs(total)


def pseudotwist_classes(lengths: Sequence[int]):
    """(integer tangles, multiplicity) per resolution class of pseudotwists.

    A resolution of i^k with j positive crossings is the integer tangle
    2j - k by Reidemeister II; C(k, j) assignments share it.
    """
    for js in itertools.product(*(range(k + 1) for k in lengths)):
        mult = 1
        for k, j in zip(lengths, js):
            mult *= math.comb(k, j)
        yield tuple(2 * j - k for k, j in zip(lengths, js)), mult


def gcd_all(values) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


def colorable_from_dets(dets, p: int) -> bool:
    """Colorable mod p: every determinant is 0 or shares a factor with p."""
    return all(d == 0 or math.gcd(d, p) > 1 for d in dets)


def coloring_numbers_from_dets(dets, bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if colorable_from_dets(dets, p)]


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    n = abs(n)
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_power_of(n: int, p: int) -> bool:
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def check_coloring(arcs, values: Sequence[int], modulus: int) -> None:
    """A coloring satisfies every crossing relation of the arc data."""
    expect(len(values) == arcs.n_arcs, f"coloring has {len(values)} values for {arcs.n_arcs} arcs")
    for node, (over, uin, uout) in arcs.classical.items():
        expect(
            (values[uin] + values[uout] - 2 * values[over]) % modulus == 0,
            f"coloring breaks the relation at crossing {node} mod {modulus}",
        )


# ---------------------------------------------------------------------------
# Family members


@dataclass(frozen=True)
class Member:
    """A pseudodiagram with its expected determinants.

    `template` holds one `{}` per pseudotwist, in symbol order; the symbol
    fills them with `(i^k)`, a resolution class with integer tangles.
    `class_det` gives the determinant of a resolution class apart from the
    library, or is None when only the family formula is restated.
    """

    row: int | None
    template: str
    twists: tuple[int, ...]
    crossings: int
    pseudodet: int | None = None
    class_det: Callable[[tuple[int, ...]], int] | None = None

    @property
    def symbol(self) -> str:
        return self.template.format(*(f"(i^{k})" for k in self.twists))

    def class_symbol(self, tangles: Sequence[int]) -> str:
        return self.template.format(*(f"({c})" for c in tangles))

    @property
    def precrossings(self) -> int:
        return sum(self.twists)

    def expected_dets(self) -> Counter | None:
        """Multiset of resolution determinants, or None without a class_det."""
        if self.class_det is None:
            return None
        out: Counter = Counter()
        for tangles, mult in pseudotwist_classes(self.twists):
            out[self.class_det(tangles)] += mult
        return out


def rational_member(row: int, p: int, q: int, k: int) -> Member:
    """Rows 1, 2 and 3: (a) (i^k) (b) shapes with a, b odd."""
    a, b = 2 * p + 1, 2 * q + 1
    if row == 1:
        return Member(1, f"({a}) {{}} ({b})", (k,), a + b + k,
                      math.gcd(a * b, 4 * p * q - 1), lambda c: rational_det([a, c[0], b]))
    if row == 2:
        return Member(2, f"({a}) {{}} -({b})", (k,), a + b + k,
                      math.gcd(a * b, 4 * p * q + 4 * p + 1), lambda c: rational_det([a, c[0], -b]))
    if row == 3:
        return Member(3, f"({2 * p}) 1 {{}} 1 ({2 * q})", (k,), 2 * p + 2 * q + 2 + k,
                      math.gcd(a * b, 4 * p * q - 1), lambda c: rational_det([2 * p, 1, c[0], 1, 2 * q]))
    raise ValueError(f"no rational row {row}")


def word_member(left: int, k: int, right: int) -> Member:
    """(left) (i^k) (right) for any nonzero twist counts; a negative count is a reflection."""
    def text(n: int) -> str:
        return f"({n})" if n > 0 else f"-({-n})"
    return Member(None, f"{text(left)} {{}} {text(right)}", (k,), abs(left) + abs(right) + k,
                  None, lambda c: rational_det([left, c[0], right]))


def ramified_member(row: int, p: int, q: int, k: int) -> Member:
    """Rows 40 and 41: (i^k),(x),(y) ramifications."""
    if row == 40:
        x, y = 2 * p + 1, 2 * q + 1
        return Member(40, f"{{}},({x}),({y})", (k,), x + y + k,
                      math.gcd(4 * p * q - 1, p + q + 1), lambda c: ramified_det([[c[0]], [x], [y]]))
    if row == 41:
        return Member(41, f"{{}},({2 * p}) 1,({2 * q}) 1", (k,), 2 * p + 2 * q + 2 + k,
                      math.gcd(4 * p * q - 1, 4 * p * q + p + q),
                      lambda c: ramified_det([[c[0]], [2 * p, 1], [2 * q, 1]]))
    raise ValueError(f"no ramified row {row}")


def pretzel_member(k: int, x: int, y: int) -> Member:
    """(i^k),(x),(y) for any odd or even twist counts x, y > 0."""
    return Member(None, f"{{}},({x}),({y})", (k,), x + y + k, None,
                  lambda c: ramified_det([[c[0]], [x], [y]]))


def kh_member(p: int) -> Member:
    """(2p) 1 i,(2p+1),-(2p+1): a ramification whose resolutions share (2p+1)^3."""
    a = 2 * p + 1
    return Member(None, f"({2 * p}) 1 {{}},({a}),-({a})", (1,), 2 * p + 1 + 1 + 2 * a, None,
                  lambda c: ramified_det([[2 * p, 1, c[0]], [a], [-a]]))


# Polyhedral rows: template with one {} per pseudotwist, twist parities, value.
POLYHEDRAL_ROWS: dict[int, tuple[str, tuple[int, ...], int, int]] = {
    # row: (template, parity of each twist length (0 even, 1 odd), vertices, pseudodet)
    33: ("8*{} 0::{}", (0, 1), 8, 3),
    34: ("8*{} 0::{} 0", (0, 1), 8, 3),
    35: ("8*{} 0::{}.(-1).(-1).(-1)", (0, 1), 8, 9),
    36: ("8*{} 0::{} 0.(-1).(-1).(-1)", (0, 1), 8, 9),
    50: ("9*.{}:.{}:.{}", (1, 1, 1), 9, 3),
    51: ("9*.{} 0:.{}:.{}", (1, 1, 1), 9, 3),
    52: ("9*.{} 0:.{} 0:.{}", (1, 1, 1), 9, 3),
    53: ("9*.{} 0:.{} 0:.{} 0", (1, 1, 1), 9, 3),
    54: ("9*.{}.(-1):{}.(-1):{}.(-1)", (1, 1, 1), 9, 9),
    55: ("9*.{} 0.(-1):{}.(-1):{}.(-1)", (1, 1, 1), 9, 9),
    56: ("9*.{} 0.(-1):{} 0.(-1):{}.(-1)", (1, 1, 1), 9, 9),
    57: ("9*.{} 0.(-1):{} 0.(-1):{} 0.(-1)", (1, 1, 1), 9, 9),
}


def polyhedral_members(row: int, total: int) -> list[Member]:
    """Members of a polyhedral row whose pseudotwists hold `total` precrossings.

    Each pseudotwist fills one vertex, so the crossing count is the vertex
    count minus the twist count plus `total`.
    """
    template, parities, vertices, value = POLYHEDRAL_ROWS[row]
    out = []
    for lengths in itertools.product(range(1, total + 1), repeat=len(parities)):
        if sum(lengths) == total and all(k % 2 == par for k, par in zip(lengths, parities)):
            out.append(Member(row, template, lengths, vertices - len(lengths) + total, value))
    return out


# ---------------------------------------------------------------------------
# JSON schema subset


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def validate(value, schema: dict, path: str = "$") -> None:
    """Raise CheckFailed unless value meets the schema.

    Covers the keywords of docs/schemas: type, enum, minimum, pattern,
    required, properties, additionalProperties, items, minItems, maxItems.
    """
    types = schema.get("type")
    if types is not None:
        names = types if isinstance(types, list) else [types]
        expect(any(_type_ok(value, t) for t in names), f"{path}: {value!r} is not of type {types}")
    if "enum" in schema:
        expect(value in schema["enum"], f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        expect(value >= schema["minimum"], f"{path}: {value} < {schema['minimum']}")
    if "pattern" in schema and isinstance(value, str):
        expect(re.search(schema["pattern"], value) is not None, f"{path}: {value!r} misses {schema['pattern']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            expect(key in value, f"{path}: missing {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                validate(item, props[key], f"{path}.{key}")
            elif extra is False:
                raise CheckFailed(f"{path}: unexpected property {key!r}")
            elif isinstance(extra, dict):
                validate(item, extra, f"{path}.{key}")
    if isinstance(value, list):
        if "minItems" in schema:
            expect(len(value) >= schema["minItems"], f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema:
            expect(len(value) <= schema["maxItems"], f"{path}: more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{i}]")
