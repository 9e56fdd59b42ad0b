"""Instruction templates: the packaged defaults and their one slot check.

Templates are plain text files with ``{placeholder}`` slots so operators can
edit them without touching code. :data:`SLOTS` lists the slots of each
template, and :func:`resolve` checks a template against them when the
config that carries it is built, so rendering is a plain ``str.format``.
"""

from __future__ import annotations

import string
from importlib import resources
from typing import Mapping


class TemplateError(ValueError):
    pass


SLOTS: Mapping[str, frozenset[str]] = {
    "summary_instruction": frozenset({"head", "tail", "relation"}),
    "confirmation_instruction": frozenset({"head", "tail", "labels"}),
    "inference_instruction": frozenset({"labels"}),
}


def placeholders(template: str) -> set[str]:
    """Every field name, including those nested in a format spec (``{a:{b}}``)."""
    try:
        return {
            name
            for _, field, spec, _ in string.Formatter().parse(template)
            if field is not None
            for name in (field, *placeholders(spec))
        }
    except ValueError as exc:
        raise TemplateError(f"unparseable template: {exc}")


def resolve(name: str, template: str | None = None) -> str:
    """``template``, or the packaged template ``name`` if it is None, once
    its placeholders are checked to be exactly ``SLOTS[name]``."""
    if template is None:
        ref = resources.files("adrcm.data.templates").joinpath(f"{name}.txt")
        template = ref.read_text(encoding="utf-8")
    present = placeholders(template)
    missing = SLOTS[name] - present
    if missing:
        raise TemplateError(f"template missing placeholders: {sorted(missing)}")
    unknown = present - SLOTS[name]
    if unknown:
        raise TemplateError(f"template has unknown placeholders: {sorted(unknown)}")
    nested = {slot for *_, spec, _ in string.Formatter().parse(template)
              for slot in placeholders(spec or "")}
    if nested:  # the trial render below could not try such a slot's real value
        raise TemplateError(f"template has placeholders nested in a format spec: {sorted(nested)}")
    try:  # every slot renders a str, so a trial with "" finds each bad format spec
        template.format(**dict.fromkeys(SLOTS[name], ""))
    except (ValueError, IndexError) as exc:
        raise TemplateError(f"template does not render: {exc}")
    return template
