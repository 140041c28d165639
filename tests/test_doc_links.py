"""The Markdown link checker: real links are checked, code is not."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def checker():
    path = os.path.join(ROOT, "scripts", "check_doc_links.py")
    spec = importlib.util.spec_from_file_location("check_doc_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inline_and_reference_links_are_found(checker):
    text = "See [a](docs/a.md) and ![img](b.png).\n\n[ref]: c.md\n"
    assert list(checker.iter_links(text)) == ["docs/a.md", "b.png", "c.md"]


@pytest.mark.parametrize(
    "code",
    [
        "`table[key](arg)`",
        "`` `table[key](arg)` ``",
        "```\n[x](missing.md)\n```",
        "~~~python\n[x](missing.md)\n[ref]: missing.md\n~~~",
    ],
)
def test_code_is_not_a_link(checker, code):
    text = f"Before [a](a.md).\n\n{code}\n\nAfter [b](b.md).\n"
    assert list(checker.iter_links(text)) == ["a.md", "b.md"]


def test_unclosed_backtick_does_not_hide_the_next_paragraph(checker):
    text = "A stray ` backtick.\n\nThen [a](a.md) and `x`.\n"
    assert list(checker.iter_links(text)) == ["a.md"]


def test_broken_link_is_reported(checker, tmp_path):
    (tmp_path / "here.md").write_text("ok")
    doc = tmp_path / "doc.md"
    doc.write_text("[ok](here.md) [gone](gone.md) `[code](gone.md)`\n")
    broken = checker.check_file(str(doc), str(tmp_path))
    assert [target for target, _ in broken] == ["gone.md"]


def test_repo_docs_have_no_broken_links(checker, capsys):
    assert checker.main([ROOT]) == 0, capsys.readouterr().out
