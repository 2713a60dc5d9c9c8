"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import io
import sqlite3

import pytest

from repro.cli import main
from repro.data.example import paper_example_database
from repro.data.io import read_basket_file, write_basket_file


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def example_basket(tmp_path):
    path = tmp_path / "example.basket"
    write_basket_file(paper_example_database(), path)
    return str(path)


class TestMine:
    def test_mine_basket_file(self, example_basket):
        code, output = run_cli(
            "mine", example_basket, "--minsup", "0.3", "--minconf", "0.7"
        )
        assert code == 0
        assert "13 frequent patterns" in output
        assert "B ==> A, [75.0%, 30.0%]" in output
        assert "D E ==> F, [100.0%, 30.0%]" in output

    def test_mine_csv_file(self, tmp_path):
        from repro.data.io import write_sales_csv

        path = tmp_path / "sales.csv"
        write_sales_csv(paper_example_database(), path)
        code, output = run_cli(
            "mine", str(path), "--minsup", "0.3", "--minconf", "0.7"
        )
        assert code == 0
        assert "13 frequent patterns" in output

    def test_mine_with_algorithm_choice(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--algorithm", "apriori",
        )
        assert code == 0
        assert "apriori: 13 frequent patterns" in output

    def test_mine_with_max_length(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7", "--max-length", "2",
        )
        assert code == 0
        assert "longest 2" in output

    def test_patterns_flag_lists_itemsets(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7", "--patterns",
        )
        assert code == 0
        assert "D E F  [3]" in output

    def test_unknown_algorithm_rejected_by_parser(self, example_basket):
        with pytest.raises(SystemExit):
            run_cli("mine", example_basket, "--algorithm", "magic")

    def test_minsup_count_absolute_support(self, example_basket):
        """--minsup-count 3 over 10 transactions equals --minsup 0.3."""
        code, output = run_cli(
            "mine", example_basket, "--minsup-count", "3", "--minconf", "0.7"
        )
        assert code == 0
        assert "13 frequent patterns" in output

    def test_minsup_count_overrides_minsup(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.01", "--minsup-count", "9", "--minconf", "0.7",
        )
        assert code == 0
        # Threshold 9 of 10: nothing but the most common items survive,
        # certainly not the 13 patterns of threshold 3.
        assert "13 frequent patterns" not in output

    def test_buffer_pages_flag_reaches_disk_engine(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--algorithm", "setm-disk", "--buffer-pages", "16",
        )
        assert code == 0
        assert "setm-disk: 13 frequent patterns" in output

    def test_buffer_pages_rejected_for_memory_engine(
        self, example_basket, capsys
    ):
        code, _ = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7", "--buffer-pages", "16",
        )
        assert code == 2
        assert "buffer_pages" in capsys.readouterr().err

    def test_bad_minsup_count_reports_structured_error(
        self, example_basket, capsys
    ):
        code, _ = run_cli("mine", example_basket, "--minsup-count", "0")
        assert code == 2
        assert "minimum_support" in capsys.readouterr().err

    def test_json_stdout_stays_empty_on_error(self, example_basket, capsys):
        """A structured error goes to stderr only, so ``--json`` stdout is
        always a JSON document or nothing."""
        code, output = run_cli(
            "mine", example_basket, "--minsup-count", "0", "--json"
        )
        assert code == 2
        assert output == ""
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_nested_loop_disk_engine_available(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--algorithm", "nested-loop-disk",
        )
        assert code == 0
        assert "nested-loop-disk: 13 frequent patterns" in output

    def test_engine_alias_selects_algorithm(self, example_basket):
        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--engine", "setm-columnar",
        )
        assert code == 0
        assert "setm-columnar: 13 frequent patterns" in output

    def test_json_output_with_iteration_timings(self, example_basket):
        import json

        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--engine", "setm-columnar", "--json",
        )
        assert code == 0
        document = json.loads(output)
        assert document["algorithm"] == "setm-columnar"
        assert document["num_patterns"] == 13
        assert document["elapsed_seconds"] > 0
        assert len(document["rules"]) == 11
        ks = [it["k"] for it in document["iterations"]]
        assert ks == sorted(ks) and ks[0] == 1
        # Per-iteration wall clock from the kernel, one entry per k.
        assert set(document["iteration_seconds"]) == {str(k) for k in ks}
        assert all(v >= 0 for v in document["iteration_seconds"].values())

    def test_json_output_for_faithful_engine(self, example_basket):
        import json

        code, output = run_cli(
            "mine", example_basket, "--algorithm", "setm",
            "--minsup", "0.3", "--minconf", "0.7", "--json",
        )
        assert code == 0
        document = json.loads(output)
        assert document["algorithm"] == "setm"
        assert document["iteration_seconds"]

    def test_json_reports_peak_memory(self, example_basket):
        import json

        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7", "--json",
        )
        assert code == 0
        document = json.loads(output)
        assert document["peak_memory_bytes"] > 0

    def test_memory_budget_flag_reaches_out_of_core_engine(
        self, example_basket
    ):
        import json

        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--engine", "setm-columnar-disk", "--memory-budget", "64K",
            "--json",
        )
        assert code == 0
        document = json.loads(output)
        assert document["algorithm"] == "setm-columnar-disk"
        assert document["memory_budget_bytes"] == 64 * 1024
        assert document["num_patterns"] == 13
        assert document["spill"] is not None

    def test_memory_budget_suffixes(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("65536") == 65536
        assert _parse_bytes("64K") == 64 * 1024
        assert _parse_bytes("2m") == 2 * 2**20
        assert _parse_bytes("1G") == 2**30

    def test_memory_budget_rejects_garbage(self, example_basket):
        with pytest.raises(SystemExit):
            run_cli(
                "mine", example_basket, "--memory-budget", "lots",
            )

    def test_memory_budget_rejected_for_in_memory_engine(
        self, example_basket, capsys
    ):
        code, _ = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--memory-budget", "64K",
        )
        assert code == 2
        assert "memory_budget_bytes" in capsys.readouterr().err

    def test_workers_flag_reaches_parallel_engine(self, example_basket):
        import json

        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--engine", "setm-parallel", "--workers", "2", "--json",
        )
        assert code == 0
        document = json.loads(output)
        assert document["algorithm"] == "setm-parallel"
        assert document["workers"] == 2
        assert "threshold_rows" not in document["parallel"]
        assert document["spill"]["bytes_written"] == 0

    def test_workers_rejected_for_serial_engine(self, example_basket, capsys):
        code, _ = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--workers", "2",
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_budget_and_workers_combine_on_spill_parallel(
        self, example_basket
    ):
        """--memory-budget and --workers reach the combined engine at once,
        and the JSON document merges spill and pool telemetry."""
        import json

        code, output = run_cli(
            "mine", example_basket,
            "--minsup", "0.3", "--minconf", "0.7",
            "--engine", "setm-spill-parallel",
            "--memory-budget", "1K", "--workers", "2",
            "--json",
        )
        assert code == 0
        document = json.loads(output)
        assert document["algorithm"] == "setm-spill-parallel"
        assert document["memory_budget_bytes"] == 1024
        assert document["workers"] == 2
        assert document["num_patterns"] == 13
        # The 1 KiB budget forces spilling even on the 10-transaction
        # example, so both telemetry blocks carry real content.
        assert document["spill"]["max_partitions"] >= 2
        assert document["parallel"]["parallel_iterations"]


class TestQuery:
    def test_query_rules_text_output(self, example_basket):
        code, output = run_cli(
            "query",
            "MINE RULES FROM example WHERE support >= 0.3 "
            "AND confidence >= 0.7",
            f"example={example_basket}",
        )
        assert code == 0
        assert "13 frequent patterns" in output
        assert "11 rules" in output
        assert "D E ==> F, [100.0%, 30.0%]" in output

    def test_query_json_matches_mine_json(self, example_basket):
        """The query document's patterns/rules agree with ``repro mine``
        on the same thresholds (the CI smoke step pins the same)."""
        import json as _json

        code, q_out = run_cli(
            "query",
            "MINE RULES FROM example WHERE support >= 0.3 "
            "AND confidence >= 0.7 USING ENGINE 'setm'",
            f"example={example_basket}",
            "--json",
        )
        assert code == 0
        code, m_out = run_cli(
            "mine", example_basket, "--minsup", "0.3", "--minconf", "0.7",
            "--json",
        )
        assert code == 0
        q_doc, m_doc = _json.loads(q_out), _json.loads(m_out)
        assert [
            [str(i) for i in p["items"]] for p in q_doc["result"]["patterns"]
        ] == [p["items"] for p in m_doc["patterns"]]
        assert [r["text"] for r in q_doc["rules"]] == m_doc["rules"]

    def test_query_explain_does_not_mine(self, example_basket):
        code, output = run_cli(
            "query",
            "MINE ITEMSETS FROM example WHERE support >= 0.3 "
            "WITH workers = 2",
            f"example={example_basket}",
            "--explain",
        )
        assert code == 0
        assert "mine: setm-parallel" in output
        assert "workers = 2 requested" in output
        assert "patterns" not in output

    def test_query_quoted_path_needs_no_inputs(self, example_basket):
        code, output = run_cli(
            "query",
            f"MINE ITEMSETS FROM '{example_basket}' WHERE support >= 0.3",
            "--json",
        )
        assert code == 0
        import json as _json

        assert _json.loads(output)["result"]["num_patterns"] == 13

    def test_query_unknown_dataset_lists_known(self, example_basket, capsys):
        code, _ = run_cli(
            "query",
            "MINE RULES FROM nope WHERE support >= 0.3",
            f"example={example_basket}",
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "unknown dataset 'nope'" in error
        assert "example" in error

    def test_query_parse_error_carries_position(self, example_basket, capsys):
        code, _ = run_cli(
            "query", "MINE NOTHING FROM example",
            f"example={example_basket}",
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "error:" in error
        assert "line 1, column 6" in error


class TestEngines:
    def test_lists_every_registered_engine(self):
        from repro.registry import available_engines

        code, output = run_cli("engines")
        assert code == 0
        for name in available_engines():
            assert name in output
        assert "out-of-core" in output
        assert "parallel" in output
        assert "representation" in output

    def test_json_document_carries_capabilities(self):
        import json

        from repro.registry import available_engines

        code, output = run_cli("engines", "--json")
        assert code == 0
        document = json.loads(output)
        assert [entry["name"] for entry in document] == list(
            available_engines()
        )
        by_name = {entry["name"]: entry for entry in document}
        assert by_name["setm-columnar-disk"]["out_of_core"] is True
        assert by_name["setm-disk"]["reports_page_accesses"] is True
        assert by_name["setm"]["representation"] == "tuples"
        assert by_name["setm-parallel"]["parallel"] is True
        assert by_name["setm-columnar"]["parallel"] is False
        assert (
            "memory_budget_bytes"
            in by_name["setm-columnar-disk"]["accepted_options"]
        )


class TestGenerate:
    def test_generate_example(self, tmp_path):
        target = tmp_path / "out.basket"
        code, output = run_cli(
            "generate", "--dataset", "example", "--output", str(target)
        )
        assert code == 0
        assert "10 transactions" in output
        assert read_basket_file(target) == paper_example_database()

    def test_generate_retail_scaled(self, tmp_path):
        target = tmp_path / "retail.basket"
        code, output = run_cli(
            "generate", "--dataset", "retail",
            "--scale", "0.01", "--output", str(target),
        )
        assert code == 0
        db = read_basket_file(target)
        assert db.num_transactions == 469  # round(46873 * 0.01)

    def test_generate_quest_with_size(self, tmp_path):
        target = tmp_path / "quest.basket"
        code, _ = run_cli(
            "generate", "--dataset", "quest",
            "--transactions", "50", "--output", str(target),
        )
        assert code == 0
        assert read_basket_file(target).num_transactions == 50

    def test_generate_csv_output(self, tmp_path):
        target = tmp_path / "sales.csv"
        code, _ = run_cli(
            "generate", "--dataset", "example", "--output", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("trans_id,item")


class TestSql:
    def test_sort_merge_script_is_valid_sqlite(self):
        code, output = run_cli("sql", "--k", "3")
        assert code == 0
        connection = sqlite3.connect(":memory:")
        for statement in output.strip().split(";"):
            if statement.strip():
                connection.execute(statement, {"minsupport": 1})
        connection.close()

    def test_nested_loop_script(self):
        code, output = run_cli("sql", "--k", "2", "--strategy", "nested-loop")
        assert code == 0
        assert "SALES r1, SALES r2" in output

    def test_text_item_type(self):
        code, output = run_cli("sql", "--k", "2", "--item-type", "TEXT")
        assert code == 0
        assert "item TEXT" in output


class TestAnalyze:
    def test_analyze_prints_paper_numbers(self):
        code, output = run_cli("analyze")
        assert code == 0
        assert "2,040,000" in output
        assert "120,112" in output
        assert "34" in output
