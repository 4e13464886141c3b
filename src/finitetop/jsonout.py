"""`--json` output at C speed: the text the standard library writes with `indent=2, sort_keys=True`.

With `indent` set, the standard library encodes in pure Python. Here the
text is put together in pieces and joined once, a list of strings is one
piece, and every leaf is written by C code: strings by
`encode_basestring_ascii`, numbers by `int.__repr__` and `float.__repr__`.
A `LabelLists` value renders each of its masks as the list of its labels
from per-byte tables of label text. Only the `--json` branch imports this
module, and it loads only the C encoder of `_json`, so a text call compiles
no JSON code and neither call loads the `json` package.
"""

try:
    from _json import encode_basestring_ascii as _string
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _string

from .spaces import _tables_by_byte

_CONSTANTS = {True: "true", False: "false", None: "null"}
_SPECIAL = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


class LabelLists:
    """Masks over `points`, at most 16 of them, rendered as the list of each mask's labels."""

    __slots__ = ("points", "masks")

    def __init__(self, points, masks):
        self.points, self.masks = points, masks


def _scalar(v):
    """The JSON text of None, a bool, an int or a float, as `json` spells it; None for any other value."""
    if v is None or v is True or v is False:
        return _CONSTANTS[v]
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return "NaN" if v != v else _SPECIAL.get(v) or float.__repr__(v)
    return None


def _key(k):
    text = k if isinstance(k, str) else _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _string(text)


def _label_lists(v, ind, put):
    """Put the masks as a list of label lists whose brackets sit on `ind`, from two tables of label text."""
    if not v.masks:
        put("[]")
        return
    inner = ind + "  "
    lo, hi = _tables_by_byte(["," + inner + "  " + _string(p) for p in v.points])
    close = inner + "]"
    put("[" + inner)
    # a mask's text is its two bytes' label texts, less the first label's leading comma
    put(("," + inner).join(["[" + (lo[m & 255] + hi[m >> 8])[1:] + close if m else "[]" for m in v.masks]))
    put(ind + "]")


def _write(v, ind, put):
    """Put the JSON text of `v` in pieces, its later lines indented as `ind` (a newline and spaces) says."""
    if isinstance(v, str):
        put(_string(v))
    elif (text := _scalar(v)) is not None:
        put(text)
    elif isinstance(v, (list, tuple)):
        if not v:
            put("[]")
            return
        inner = ind + "  "
        sep = "," + inner
        put("[" + inner)
        try:  # a list of strings, the common case, in one pass at C speed
            put(sep.join(map(_string, v)))
        except TypeError:  # an item is not a string
            for i, x in enumerate(v):
                if i:
                    put(sep)
                _write(x, inner, put)
        put(ind + "]")
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        inner = ind + "  "
        sep = "," + inner
        put("{" + inner)
        for i, (k, x) in enumerate(sorted(v.items())):
            if i:
                put(sep)
            put(_key(k) + ": ")
            _write(x, inner, put)
        put(ind + "}")
    elif isinstance(v, LabelLists):
        _label_lists(v, ind, put)
    else:
        raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def dumps(value):
    """`value` as JSON text, as the standard library's encoder writes it with `indent=2, sort_keys=True`."""
    pieces = []
    _write(value, "\n", pieces.append)
    return "".join(pieces)
