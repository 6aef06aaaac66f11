"""Label handling.

Objects, morphisms, and set elements are identified by labels: strings in
documents, and possibly nested tuples for values produced by constructions
(products, quotient classes, sieves-as-elements).  All enumeration output
is ordered by ``label_key`` so that results are deterministic.
"""

from __future__ import annotations

from typing import Union

Label = Union[str, int, tuple]


def label_key(label: Label):
    """Total order on labels; tuples sort after strings, ints first."""
    if isinstance(label, tuple):
        return (2,) + tuple(label_key(part) for part in label)
    if isinstance(label, bool):
        return (0, int(label))
    if isinstance(label, int):
        return (0, label)
    return (1, str(label))


def canon(labels) -> tuple:
    """Canonically sorted, duplicate-free tuple of labels.  Labels that are
    all exactly ``str`` sort as they are: ``label_key`` maps each to
    ``(1, label)``, which orders them the same way."""
    unique = set(labels)
    if set(map(type, unique)) <= {str}:
        return tuple(sorted(unique))
    return tuple(sorted(unique, key=label_key))


def show_label(label: Label) -> str:
    """Render a label for reports; nested tuples become ``(a,b)``."""
    if isinstance(label, tuple):
        return "(" + ",".join(show_label(part) for part in label) + ")"
    return str(label)
