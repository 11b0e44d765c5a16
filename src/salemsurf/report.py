"""Verification report tree and its two emitters.

A Report is a named pass/fail/error node with an optional witness (any
JSON-serializable payload; field elements should be rendered as `g^k`
strings, rationals as [num, den] pairs before attaching, as
`lattice_checks.interval_witness` does). Internal nodes take the worst
status of their children: error beats fail beats pass.

JSON emission is canonical and byte-stable: `schema: 1` on the root
object only, fixed key order (schema, name, status, witness, children,
elapsed_ms), `children` omitted when empty, and elapsed_ms pinned to 0
so repeated runs compare equal byte for byte. Markdown emission is for
humans and shows the measured wall times instead.
"""

from __future__ import annotations

import json

_STATUS_RANK = {"pass": 0, "fail": 1, "error": 2}


class Report:
    __slots__ = ("name", "status", "witness", "children", "elapsed_ms")

    def __init__(self, name, status, witness=None, children=None):
        if status not in _STATUS_RANK:
            raise ValueError(f"bad status {status!r}")
        self.name = name
        self.status = status
        self.witness = witness
        self.children = list(children) if children else []
        self.elapsed_ms = 0.0  # the suite runner sets the measured time

    def ok(self):
        return self.status == "pass"

    def __repr__(self):
        return f"Report({self.name!r}, {self.status})"


def leaf(name, ok, witness=None) -> Report:
    return Report(name, "pass" if ok else "fail", witness)


def error_leaf(name, ex) -> Report:
    return Report(name, "error", f"{type(ex).__name__}: {ex}")


def node(name, children, witness=None) -> Report:
    worst = "pass"
    for c in children:
        if _STATUS_RANK[c.status] > _STATUS_RANK[worst]:
            worst = c.status
    return Report(name, worst, witness, children)


# ---------------------------------------------------------------------------
# emission


def _to_obj(r: Report, root: bool):
    obj = {}
    if root:
        obj["schema"] = 1
    obj["name"] = r.name
    obj["status"] = r.status
    obj["witness"] = r.witness
    if r.children:
        obj["children"] = [_to_obj(c, False) for c in r.children]
    obj["elapsed_ms"] = 0
    return obj


def emit_json(r: Report) -> str:
    """Canonical JSON, byte-identical across runs on identical inputs."""
    return json.dumps(_to_obj(r, True), indent=2, sort_keys=False,
                      ensure_ascii=True) + "\n"


_MARK = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}


def emit_markdown(r: Report) -> str:
    lines = [f"# verification report: {r.name}", ""]
    lines.append(f"overall: **{_MARK[r.status]}** "
                 f"({r.elapsed_ms:.0f} ms)")
    lines.append("")

    def walk(n: Report, depth: int):
        pad = "  " * depth
        wit = ""
        if n.witness is not None and not n.children:
            wit = f" — {_render_witness(n.witness)}"
        lines.append(f"{pad}- [{_MARK[n.status]}] `{n.name}`"
                     f" ({n.elapsed_ms:.1f} ms){wit}")
        for c in n.children:
            walk(c, depth + 1)

    for c in (r.children or [r]):
        walk(c, 0)
    lines.append("")
    return "\n".join(lines)


def _render_witness(w) -> str:
    if isinstance(w, str):
        return w
    text = json.dumps(w, ensure_ascii=True)
    if len(text) > 400:
        text = text[:397] + "..."
    return text
