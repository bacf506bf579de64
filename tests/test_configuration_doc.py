"""``docs/configuration.md`` documents exactly the fields of ``CloudConfig``."""

import dataclasses
import pathlib
import re

from repro.cloud.config import CloudConfig

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "configuration.md"

#: A table row whose first cell is one backquoted identifier.
ROW = re.compile(r"^\| `(\w+)` \|", re.MULTILINE)


def test_doc_tables_list_every_field_and_nothing_else():
    documented = ROW.findall(DOC.read_text(encoding="utf-8"))
    assert len(documented) == len(set(documented)), "a field is documented twice"
    assert set(documented) == {field.name for field in dataclasses.fields(CloudConfig)}
