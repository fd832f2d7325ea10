"""Reference normal form of a sequence description, written symbol by
symbol: the constructor of ``SymbolSequence`` as it was before construction
ran on slice comparisons, kept as it was.  The tests compare the library's
normal form with it."""

import math


def primitive(word: tuple) -> tuple:
    """Smallest word whose repetition equals ``word``, from its prefix function (KMP)."""
    k, pi = 0, [0]
    for s in word[1:]:
        while k and s != word[k]:
            k = pi[k - 1]
        k += s == word[k]
        pi.append(k)
    p = len(word) - k
    return word[:p] if word and len(word) % p == 0 else word


def normalize_empty(start, left, right):
    """Slide the start left while the right tiling still predicts the
    symbol before it, so the representation is unique.  Sliding a full
    common period means the two tilings agree everywhere: the sequence
    is one periodic word, anchored at coordinate 0."""
    for _ in range(math.lcm(len(left), len(right))):
        if right[-1] != left[-1]:
            return start, left, right
        start -= 1
        left, right = left[-1:] + left[:-1], right[-1:] + right[:-1]
    k = -start % len(right)
    word = right[k:] + right[:k]
    return 0, word, word


def normal_form(window=(), start=0, left=(0,), right=(0,)):
    """(window, start, left, right) of the sequence in normal form."""
    window = tuple(window)
    left = primitive(tuple(left))
    right = primitive(tuple(right))
    if not left or not right:
        raise ValueError("tail words must be nonempty")
    n, i = len(left), 0
    while i < len(window) and window[i] == left[i % n]:
        i += 1
    if i:
        window, start = window[i:], start + i
        left = left[i % n:] + left[:i % n]
    n, j, m = len(right), 0, len(window)
    while j < m and window[m - 1 - j] == right[-1 - j % n]:
        j += 1
    if j:
        window = window[:m - j]
        right = right[n - j % n:] + right[:n - j % n]
    if not window:
        start, left, right = normalize_empty(start, left, right)
    return window, start, left, right
