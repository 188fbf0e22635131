"""Finite presentations: text parsing and Todd-Coxeter enumeration.

The enumerator is the standard relator-based HLT strategy over a
subgroup H given by generating words (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, ch. 5): each of them
is first scanned and filled at coset 0 (the coset H itself), then
every live coset is scanned against every relator, scans fill in
missing table entries, and collisions are resolved with a union-find
coincidence queue.  When the table closes, the number of live cosets is
the index [G:H], which is the group order when H is trivial.  Running
out of table space is an ordinary outcome, reported in the result
rather than raised.

The relators are normalized once: empty ones and repeats up to
inversion and cyclic rotation are dropped (nu(G) lists [v, w] and
[w, v]), and the rest are scanned shortest first, ties in the order
listed, since short relators deduce entries sooner and so fewer
cosets are defined.  A relator whose cycle already closes at a coset
is found so by a bare walk along the table and not scanned.  The run
is deterministic: cosets are numbered in creation order, and the fill
pass walks columns left to right.  A dead coset's row is freed once its
entries have moved, so memory follows the live cosets.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple

from .errors import TensqError
from .metagrp import GroupParams
from .presentations import HEADER, Presentation, Word, exterior_and_schur, nu_presentation

DEFAULT_MAX_COSETS = 10**6


class PresentationSyntaxError(TensqError):
    """Malformed presentation text, located by line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+")


def _parse_relator(text: str, lineno: int, gen_index: dict[str, int]) -> Word:
    pos = 0
    end = len(text)
    factors = []
    while True:
        while pos < end and text[pos] == " ":
            pos += 1
        match = _NAME.match(text, pos)
        if not match:
            raise PresentationSyntaxError("expected a generator name", lineno, pos + 1)
        name = match.group()
        if name not in gen_index:
            raise PresentationSyntaxError(f"unknown generator '{name}'", lineno, pos + 1)
        pos = match.end()
        exponent = 1
        if pos < end and text[pos] == "^":
            pos += 1
            match = _INT.match(text, pos)
            if not match:
                raise PresentationSyntaxError("expected an integer exponent", lineno, pos + 1)
            try:
                exponent = int(match.group())
            except ValueError:  # past Python's limit on int-from-str digits
                raise PresentationSyntaxError("exponent has too many digits", lineno, pos + 1)
            if exponent == 0:
                raise PresentationSyntaxError("zero exponent", lineno, pos + 1)
            pos = match.end()
        factors.append((gen_index[name], exponent))
        while pos < end and text[pos] == " ":
            pos += 1
        if pos >= end:
            break
        if text[pos] != "*":
            raise PresentationSyntaxError("expected '*' between factors", lineno, pos + 1)
        pos += 1
    return tuple(factors)


def parse_presentation(text: str) -> Presentation:
    """Parse the plain-text presentation format back into a Presentation.

    Accepts an optional leading header line, then a "gens:" line, then
    one relator per line.  Inverse of ``presentation_to_text``.
    """
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx < len(lines) and lines[idx].strip() == HEADER:
        idx += 1
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
    if idx >= len(lines) or not lines[idx].strip().startswith("gens:"):
        raise PresentationSyntaxError("expected a 'gens:' line", idx + 1, 1)
    gens_line = lines[idx].strip()
    names = []
    for name in gens_line[len("gens:"):].replace(",", " ").split():
        if not _NAME.fullmatch(name):
            raise PresentationSyntaxError(f"bad generator name '{name}'", idx + 1, 1)
        if name in names:
            raise PresentationSyntaxError(f"duplicate generator '{name}'", idx + 1, 1)
        names.append(name)
    if not names:
        raise PresentationSyntaxError("no generators listed", idx + 1, 1)
    gen_index = {name: i for i, name in enumerate(names)}
    relators = []
    for lineno in range(idx + 1, len(lines)):
        body = lines[lineno]
        if not body.strip():
            continue
        relators.append(_parse_relator(body.rstrip(), lineno + 1, gen_index))
    return Presentation(generators=tuple(names), relators=tuple(relators))


class EnumerationResult(namedtuple("EnumerationResult", "order cosets_used")):
    """Outcome of one enumeration: order is the number of live cosets, the
    subgroup's index, or None when the table overflowed."""

    __slots__ = ()


class _TableOverflow(Exception):
    pass


class CosetTable:
    """Coset table; row 0 is the subgroup's own coset.

    Columns come in pairs: column 2g is the action of generator g,
    column 2g+1 of its inverse.  -1 marks an undefined entry.  Dead
    cosets are tracked through the union-find array ``p``, and a dead
    coset's row is freed, set to None, once ``coincidence`` has moved
    its entries, so the table holds rows for the live cosets and the
    dead ones still queued.  ``live`` counts the live cosets.

    The table's last element is a sentinel row of -1s, never written,
    after the len(p) coset rows.  A walk that reaches an undefined
    entry reads -1 and, through table[-1], stays at -1.
    """

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int] | None] = [[-1] * self.ncols, [-1] * self.ncols]
        self.p = [0]
        self.queue: deque[int] = deque()
        self.live = 1

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, alpha: int, x: int) -> None:
        new = len(self.p)
        if new >= self.max_cosets:
            raise _TableOverflow
        self.table.insert(new, [-1] * self.ncols)
        self.p.append(new)
        self.table[alpha][x] = new
        self.table[new][x ^ 1] = alpha
        self.live += 1

    def merge(self, k: int, l: int) -> None:
        k = self.rep(k)
        l = self.rep(l)
        if k != l:
            lo, hi = (k, l) if k < l else (l, k)
            self.p[hi] = lo
            self.queue.append(hi)
            self.live -= 1

    def coincidence(self, alpha: int, beta: int) -> None:
        """Merge alpha and beta and every coincidence that follows (the
        COINCIDENCE routine of Holt-Eick-O'Brien, ch. 5), freeing each
        dead row.

        Freeing is safe.  Entries are written in pairs, table[a][x] = b
        with its back-pointer table[b][x ^ 1] = a, into two undefined
        slots, and both a and b live: by ``define``, by a scan's
        deduction and by the last branch below, between representatives.
        The one other write, table[delta][x ^ 1] = -1, clears the
        back-pointer of an entry of the dead row being processed.  So
        every entry that points to gamma, in a row not yet freed, is the
        back-pointer of an entry of gamma's row, and processing gamma
        clears each of them; none is written later, gamma being dead.
        Every dead coset is queued once and processed before this method
        returns, so afterwards no entry points to a dead coset, and
        reads, which follow entries from a live coset, never reach a
        freed row.
        """
        table = self.table
        rep = self.rep
        self.merge(alpha, beta)
        while self.queue:
            gamma = self.queue.popleft()
            row = table[gamma]
            for x in range(self.ncols):
                delta = row[x]
                if delta == -1:
                    continue
                table[delta][x ^ 1] = -1
                mu = rep(gamma)
                nu = rep(delta)
                if table[mu][x] != -1:
                    self.merge(nu, table[mu][x])
                elif table[nu][x ^ 1] != -1:
                    self.merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
            table[gamma] = None


def _letters(word: Word) -> list[int]:
    out = []
    for gen, exp in word:
        col = 2 * gen if exp > 0 else 2 * gen + 1
        out.extend([col] * abs(exp))
    return out


def _normalized_relators(relators: tuple[Word, ...]) -> list[list[int]]:
    """The relators as letters, shortest first, ties in listed order.

    An empty relator is dropped, and so is one that repeats an earlier
    one up to inversion and cyclic rotation: both have the same normal
    closure, so the group is unchanged.  A word is a rotation of w when
    it has w's length and occurs in w + w; the letters are compared as
    strings of code points, so the search runs in C.
    """
    kept: list[list[int]] = []
    doubled: dict[int, list[str]] = {}
    for word in relators:
        letters = _letters(word)
        if not letters:
            continue
        text = "".join(map(chr, letters))
        inverse = "".join([chr(x ^ 1) for x in reversed(letters)])
        same_length = doubled.setdefault(len(letters), [])
        if any(text in ww or inverse in ww for ww in same_length):
            continue
        same_length.append(text + text)
        kept.append(letters)
    kept.sort(key=len)
    return kept


def todd_coxeter(
    pres: Presentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    subgroup: tuple[Word, ...] = (),
) -> EnumerationResult:
    """Enumerate the cosets of the subgroup generated by ``subgroup``.

    The result's order is the index of that subgroup, the group order
    when ``subgroup`` is empty.  Returns order=None when the table would
    exceed ``max_cosets`` rows; the caller decides whether to retry
    larger.
    """
    relators = _normalized_relators(pres.relators)
    ct = CosetTable(len(pres.generators), max_cosets)
    table = ct.table
    p = ct.p
    define = ct.define
    coincidence = ct.coincidence
    ncols = ct.ncols
    # Coset 0 scans the subgroup's words first, then the relators.
    words = [_letters(w) for w in subgroup] + relators
    try:
        alpha = 0
        while alpha < len(p):
            if p[alpha] == alpha:
                for letters in words:
                    # A word that already closes at alpha needs no scan.
                    f = alpha
                    for x in letters:
                        f = table[f][x]
                    if f == alpha:
                        continue
                    # Scan-and-fill the word at alpha: f runs forward from
                    # alpha over letters[:i], b backward over letters[j+1:].
                    f = b = alpha
                    i = 0
                    j = len(letters) - 1
                    while True:
                        while i <= j:
                            nxt = table[f][letters[i]]
                            if nxt == -1:
                                break
                            f = nxt
                            i += 1
                        if i > j:
                            if f != b:
                                coincidence(f, b)
                            break
                        while j >= i:
                            nxt = table[b][letters[j] ^ 1]
                            if nxt == -1:
                                break
                            b = nxt
                            j -= 1
                        if j < i:
                            coincidence(f, b)
                            break
                        if j == i:
                            table[f][letters[i]] = b
                            table[b][letters[i] ^ 1] = f
                            break
                        define(f, letters[i])
                    if p[alpha] != alpha:
                        break
                else:  # alpha survived every scan: fill its row
                    row = table[alpha]
                    for x in range(ncols):
                        if row[x] == -1:
                            define(alpha, x)
            words = relators
            alpha += 1
    except _TableOverflow:
        return EnumerationResult(order=None, cosets_used=len(p))
    return EnumerationResult(order=ct.live, cosets_used=len(p))


class CertificationResult(
    namedtuple("CertificationResult", "status predicted enumerated cosets_used")
):
    """Comparison of the enumerated nu(G) order against the closed form.

    status is PASS, FAIL or INCONCLUSIVE; enumerated is None unless the
    table closed.
    """

    __slots__ = ()


def certify_nu_order(params: GroupParams, max_cosets: int = DEFAULT_MAX_COSETS) -> CertificationResult:
    """Enumerate nu(G) from its presentation and compare orders.

    The enumeration runs over the cosets of H = <x1, y1>, and
    |nu(G)| = [nu(G):H] * |H| with |H| = mn = |G|, proved from the
    presentation alone, not from the closed forms:

    (<=) x1 and y1 satisfy G's relators x1^m, y1^n x1^-s and
    [x1, y1] x1^-(r-1), which are relators of nu(G).  So y1 normalizes
    <x1>, making <x1> normal in H = <x1><y1>; <x1> has order at most m
    and y1^n = x1^s lies in it, so |H| <= mn.

    (>=) The map x1 -> a, y1 -> b and x2, y2, u, v, w, z -> 1 kills
    every relator of ``nu_presentation``, so it defines a homomorphism
    nu(G) -> G, and it maps H onto G = <a, b>, which has mn elements in
    ``metagrp``'s normal form.  So |H| >= mn.
    """
    predicted = exterior_and_schur(params).nu_order_predicted
    if params.order > max_cosets:
        # nu(G) maps onto G x G while H maps into G x 1, so the index, and
        # with it a closed table, is at least |G|: the run could only
        # overflow, after filling the whole table.
        return CertificationResult("INCONCLUSIVE", predicted, None, 0)
    x1, y1 = ((0, 1),), ((1, 1),)
    result = todd_coxeter(nu_presentation(params), max_cosets=max_cosets, subgroup=(x1, y1))
    if result.order is None:
        return CertificationResult("INCONCLUSIVE", predicted, None, result.cosets_used)
    enumerated = result.order * params.order
    status = "PASS" if enumerated == predicted else "FAIL"
    return CertificationResult(status, predicted, enumerated, result.cosets_used)
