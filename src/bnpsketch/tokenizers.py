"""Tokenizers turning raw input files into sketchable byte tokens.

Four schemes cover the bundled ingestion paths: newline-delimited records
(e.g. IP addresses), normalized words, fixed-length substrings of sequence
records (FASTA-aware), and word n-grams.
"""

from __future__ import annotations

import string

__all__ = ["make_tokenizer", "parse_tokenizer_spec"]

_PUNCT_TABLE = {ord(c): None for c in string.punctuation}


def parse_tokenizer_spec(spec: str):
    """Parse "lines", "words", "kmer:K" or "ngram:N" into (name, arg)."""
    if spec == "lines":
        return "lines", None
    if spec == "words":
        return "words", None
    for prefix in ("kmer", "ngram"):
        if spec.startswith(prefix + ":"):
            try:
                arg = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad tokenizer argument in {spec!r}")
            if arg < 1:
                raise ValueError(f"tokenizer length must be >= 1 in {spec!r}")
            return prefix, arg
    raise ValueError(
        f"unknown tokenizer {spec!r}; expected lines, words, kmer:K or ngram:N"
    )


def _iter_lines(stream):
    for raw in stream:
        yield raw.rstrip(b"\r\n")


def tokenize_lines(stream):
    """One token per non-empty line."""
    for line in _iter_lines(stream):
        if line:
            yield line


def normalize_words(line: bytes, dictionary=None):
    """Lowercase, drop ASCII punctuation, split on whitespace."""
    text = line.decode("utf-8", errors="replace").lower().translate(_PUNCT_TABLE)
    for word in text.split():
        if dictionary is None or word in dictionary:
            yield word


def tokenize_words(stream, dictionary=None):
    for line in _iter_lines(stream):
        for word in normalize_words(line, dictionary):
            yield word.encode("utf-8")


def tokenize_kmer(stream, k: int):
    """All length-k windows of each sequence record.

    Lines starting with ">" are FASTA headers: they are skipped and reset the
    window, so windows never straddle two records.  Other whitespace inside
    sequence lines is ignored.
    """
    buf = b""
    for line in _iter_lines(stream):
        if line.startswith(b">"):
            buf = b""
            continue
        chunk = b"".join(line.split())
        if not chunk:
            continue
        buf += chunk
        for i in range(len(buf) - k + 1):
            yield buf[i : i + k]
        buf = buf[max(len(buf) - k + 1, 0) :]


def tokenize_ngram(stream, n: int, dictionary=None):
    """Sliding n-tuples of normalized words, joined by single spaces.

    The window slides across line boundaries; dictionary filtering (when a
    word list is supplied) happens before n-grams are formed.
    """
    window: list[str] = []
    for line in _iter_lines(stream):
        for word in normalize_words(line, dictionary):
            window.append(word)
            if len(window) > n:
                window.pop(0)
            if len(window) == n:
                yield " ".join(window).encode("utf-8")


def make_tokenizer(spec: str, dictionary=None):
    """Return a callable mapping a binary stream to an iterator of tokens.  ``dictionary``, the
    path of a word list to keep, is read by words and ngram:N only; the others refuse it unread."""
    name, arg = parse_tokenizer_spec(spec)
    if dictionary is not None and name in ("lines", "kmer"):
        raise ValueError(f"tokenizer {spec!r} reads no dictionary")
    words = None if dictionary is None else load_dictionary(dictionary)
    if name == "lines":
        return tokenize_lines
    if name == "words":
        return lambda stream: tokenize_words(stream, words)
    if name == "kmer":
        return lambda stream: tokenize_kmer(stream, arg)
    return lambda stream: tokenize_ngram(stream, arg, words)


def load_dictionary(path) -> set:
    """Word list, one word per line, normalized the same way as input text."""
    words = set()
    with open(path, "rb") as fh:
        for line in fh:
            for w in normalize_words(line):
                words.add(w)
    return words
