"""Mutation gate: each listed mutant of ``src/`` must fail one of its named tests.

    python3 tools/mutants.py

A mutant names a file under ``src/``, a text that must occur in it exactly
once, the text that replaces it, and the tests that must catch the change.
For each mutant the script copies ``src/`` to a temporary directory, applies
the edit there and runs the named tests with pytest against the copy
(``PYTHONPATH`` points at it and the ``pythonpath`` ini setting is cleared).
Standard library only.

A mutant is killed only when pytest reports one of its named tests as FAILED.
A collection error, an error in a fixture, or an edit whose text is not found
exactly once does not count: a refactor that moves the text must update the
mutant, not drop it. Exits 1 when any mutant is not killed, else 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/dialogrank/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids; one of them must fail


MUTANTS = [
    # the k-th value of a column that k does not cut is a skipped row's inf:
    # unclamped, the skipped rows enter the short list
    Mutant("search: no k-th-value clamp", "qdataset.py",
           "kth = min(np.partition(column, part)[part], _FINITE_MAX)",
           "kth = np.partition(column, part)[part]",
           ("tests/test_qdataset.py::test_plausible_everything_excluded",
            "tests/test_unroll.py::test_nearest_exhausts_store",
            "tests/test_search.py::test_nearest_seeded_5k_store")),
    # a chain of two keys whose exact distances differ would be ranked by ties
    # alone; the mixed-chain test counts its norms
    Mutant("search: a two-key chain taken as one key", "qdataset.py",
           "        mixed = (np.minimum.reduceat(owner, starts) < np.maximum.reduceat(owner, starts))"
           "[chain - 1]\n",
           "        mixed = np.zeros(len(rows), dtype=bool)\n",
           ("tests/test_search.py::test_plausible_takes_one_exact_norm_per_key_of_a_mixed_chain",)),
    # rows that share a question but not an answer would share a key
    Mutant("corpus keys: grouped by question words only", "qdataset.py",
           "first = self.copy_of[row] = first_of.setdefault(words, row)",
           "first = self.copy_of[row] = first_of.setdefault(words[:1], row)",
           ("tests/test_qdataset.py::test_candidate_sets_match_oracle_everywhere",
            "tests/test_qdataset.py::test_corpus_keys_copy_the_first_row_of_each_word_pair")),
    # rows whose prefilter values differ within the margin must share a chain
    Mutant("search: chain split at margin 0", "qdataset.py",
           "np.greater(values[1:] - values[:-1], margin[j], out=first[1:])",
           "np.greater(values[1:] - values[:-1], 0.0, out=first[1:])",
           ("tests/test_search.py::test_nearest_near_tie_across_the_cut",
            "tests/test_search.py::test_plausible_near_tie_across_the_cut",
            "tests/test_search.py::test_nearest_duplicated_vectors_break_ties_by_id")),
    # the short list must reach the margin past the k-th value, or a row that the
    # exact distance puts inside the cut is lost
    Mutant("search: short list cut at the k-th value", "qdataset.py",
           "rows = np.flatnonzero(column <= kth + margin[j])",
           "rows = np.flatnonzero(column <= kth)",
           ("tests/test_search.py::test_nearest_near_tie_across_the_cut",
            "tests/test_search.py::test_plausible_near_tie_across_the_cut")),
    Mutant("qa key: answer mean divides by known unguarded", "qdataset.py",
           "return acc / known if known else acc",
           "return acc / known",
           ("tests/test_qdataset.py::test_answer_key_cases",
            "tests/test_qdataset.py::test_qa_key_of_punctuation_only_pair_is_zeros")),
    # one draw past the empty slots moves the generator state, so the shuffle
    # after the fill moves; the builder and unroll's pools share the fill
    Mutant("random fill: chunk of need + 1", "qdataset.py",
           "size=size - len(items)).tolist()",
           "size=size - len(items) + 1).tolist()",
           ("tests/test_qdataset.py::test_colliding_fills_match_oracle",
            "tests/test_qdataset.py::test_qdataset_without_plausible_candidates",
            "tests/test_unroll.py::test_pool_matches_independent_oracle")),
    Mutant("memo: rows stored as views", "encoders.py",
           "        row = row.copy()\n",
           "        row = row[:]\n",
           ("tests/test_scorer.py::test_memo_rows_are_read_only_copies",)),
    # round 1's empty history slots share their input bytes, not their block
    Mutant("memo: context term keyed without its block", "scorer.py",
           "key = (span, x.tobytes())",
           "key = (None, x.tobytes())",
           ("tests/test_scorer.py::test_frozen_model_runs_context_term_products_of_new_blocks_only",
            "tests/test_scorer.py::test_warm_memo_scores_bitwise_as_memo_free_load")),
    Mutant("eval: one product over all rows", "nn.py",
           "    if rows is None:\n        return x @ weight.T",
           "    if True:\n        return x @ weight.T",
           ("tests/test_scorer.py::test_eval_scores_independent_of_cobatched_options",
            "tests/test_scorer.py::test_eval_scores_independent_of_block_edge")),
    Mutant("adam: ragged last block skipped", "nn.py",
           "for i in range(0, p.size, BLOCK):",
           "for i in range(0, p.size - p.size % BLOCK, BLOCK):",
           ("tests/test_nn.py::test_blocked_adam_bitwise_matches_in_place_oracle",)),
    Mutant("adam: grads not zeroed", "nn.py",
           "            g.fill(0.0)\n",
           "",
           ("tests/test_nn.py::test_adam_zero_grad_identity",
            "tests/test_nn.py::test_blocked_adam_bitwise_matches_in_place_oracle")),
    # a run capped before its one-example batch trains; one that reaches it is refused
    Mutant("train: one-example batch check ignores max_steps", "training.py",
           "    if last == 1 and (cfg.max_steps or step) >= step:\n",
           "    if last == 1:\n",
           ("tests/test_training.py::test_two_round_run_that_stops_before_a_one_example_batch_trains",
            "tests/test_training.py::test_one_option_run_that_stops_before_a_one_example_batch_trains")),
    # a one-option example gives every mlp.h*.bn one row when it lands alone
    Mutant("train: one-example batch check ignores option counts", "training.py",
           "    elif min(len(ex.option_ids) for ex in examples) < 2:",
           "    elif False:",
           ("tests/test_training.py::"
            "test_one_option_example_with_a_one_example_batch_is_refused_before_any_step",)),
    Mutant("gradcheck: infinite tolerance accepted", "cli.py",
           'if not 0 < args.tolerance < float("inf"):',
           "if not 0 < args.tolerance:",
           ("tests/test_cli.py::test_gradcheck_out_of_range_setting_is_refused_before_any_check",)),
    # a store that keeps both rows of an id lists it twice, and the image is
    # then its own nearest neighbour
    Mutant("features: store keeps a repeated id", "text.py",
           "        if repeats.size:\n",
           "        if False:\n",
           ("tests/test_text.py::test_store_built_with_a_repeated_id_is_refused",
            "tests/test_text.py::test_feature_file_row_errors_name_the_row")),
    Mutant("transcript: q_model written under its field name", "unroll.py",
           'payload["q_model"] = payload.pop("q_model_config")',
           'payload["q_model_config"] = payload.pop("q_model_config")',
           ("tests/test_unroll.py::test_transcript_file_layout",)),
    # step 1 is right (b1**1), every later step is not
    Mutant("adam: bias correction fixed at step 1", "nn.py",
           "g *= (1.0 - b1**t) / cfg.learning_rate",
           "g *= (1.0 - b1) / cfg.learning_rate",
           ("tests/test_nn.py::test_adam_in_place_matches_oracle",
            "tests/test_nn.py::test_blocked_adam_bitwise_matches_in_place_oracle")),
    Mutant("memo: newest entry evicted first", "encoders.py",
           "self.rows.popitem(last=False)",
           "self.rows.popitem(last=True)",
           ("tests/test_scorer.py::test_memo_drops_oldest_first",)),
    # a short last block is a product of another height, which BLAS may round
    # differently from a whole block
    Mutant("eval: last block not padded", "nn.py",
           "    if n % rows:\n        x = np.concatenate",
           "    if False:\n        x = np.concatenate",
           ("tests/test_scorer.py::test_eval_scores_independent_of_block_edge",
            "tests/test_scorer.py::test_seq_block_edge_scores_bitwise_as_memo_free_load")),
    Mutant("search: k = 0 falls through", "qdataset.py",
           "    if k == 0:\n        return",
           "    if False:\n        return",
           ("tests/test_qdataset.py::test_short_list_reads_nothing_for_k_zero",)),
    # the rows of an option repeated within or across examples must sum
    Mutant("mlp: duplicate option grads written with =", "scorer.py",
           "np.add.at(dz_opt, option_of_row, dz)",
           "dz_opt[option_of_row] = dz",
           ("tests/test_scorer.py::test_late_fusion_matches_fused_row_oracle",)),
    # the rows of a repeated text must sum into its one encoding's gradient
    Mutant("text path: repeated text gradients written with =", "encoders.py",
           "np.add.at(summed, inverse, dvecs)",
           "summed[inverse] = dvecs",
           ("tests/test_encoders.py::test_text_path_packed_call_matches_one_call_per_sequence",)),
    Mutant("text path: packed rows not un-sorted", "encoders.py",
           "vecs[order] = h",
           "vecs[:] = h",
           ("tests/test_encoders.py::test_text_path_packed_call_matches_one_call_per_sequence",)),
    # eval batch norm reads the running mean; train mode never does
    Mutant("eval: batch norm with a wrong running mean", "nn.py",
           "        x -= self.running_mean\n",
           "        x -= 0.9 * self.running_mean\n",
           ("tests/test_scorer.py::test_late_fusion_matches_fused_row_oracle",)),
    # a hidden-term product of the rows still running is of another height at
    # every step, so its rows would depend on their block-mates
    Mutant("eval: LSTM hidden-step product outside nn.project", "nn.py",
           "                z += project(hn, W[:, E:], rows)\n",
           "                z += hn @ W[:, E:].T\n",
           ("tests/test_scorer.py::test_seq_block_edge_scores_bitwise_as_memo_free_load",
            "tests/test_scorer.py::test_eval_scores_independent_of_cobatched_options")),
    # each block copies [Q, D] query keys, which SEARCH_BYTES must bound too
    Mutant("search: one block for all of _plausible_by_row's rows", "qdataset.py",
           "    height = search_height(max(corpus.matrix.shape))\n",
           "    height = max(1, len(rows))\n",
           ("tests/test_search.py::test_plausible_by_row_copies_wide_keys_within_search_bytes",)),
    # the correct follow-up is pushed first and any plausible one next
    Mutant("builder: first plausible label taken as the ground truth", "qdataset.py",
           '"question_gt_index": perm.index(0),',
           '"question_gt_index": perm.index(1),',
           ("tests/test_qdataset.py::test_candidate_set_invariants",
            "tests/test_qdataset.py::test_candidate_sets_match_oracle_everywhere")),
    # a file shorter than its 12-byte header fails in struct, not with LoadError
    Mutant("feature loader: header length unchecked", "text.py",
           "    if len(data) < 12:\n",
           "    if len(data) < 8:\n",
           ("tests/test_text.py::test_features_cut_inside_header_raises_load_error",)),
    # the entries must tile the payload at the writer's offsets
    Mutant("checkpoint loader: entry offsets not compared", "checkpoint.py",
           'have = json.dumps(got[i], sort_keys=True) if i < len(got) else "no entry"',
           'have = (json.dumps(dict(got[i], offset=entry["offset"]), sort_keys=True)\n'
           '                if i < len(got) else "no entry")',
           ("tests/test_training.py::test_malformed_checkpoint_raises_load_error",)),
    # the tokenizer's contract is the regex form, which splits out all five marks
    Mutant("tokenizer: ' not split out", "text.py",
           """for mark in "?,.!'"})""",
           """for mark in "?,.!"})""",
           ("tests/test_text.py::test_tokenize_matches_the_regex_oracle",)),
    # a message is built only on failure, from (dialog, image id, round)
    Mutant("loader: round number off by one in a message", "text.py",
           'return LoadError(f"{where} round {t}: {what}" if t else',
           'return LoadError(f"{where} round {t + 1}: {what}" if t else',
           ("tests/test_text.py::test_loader_checks_run_in_the_oracle_order",
            "tests/test_text.py::test_mutated_payloads_load_or_raise_load_error")),
    # a load that raises must still end its pause of the collector
    Mutant("GC pause: not restored on error", "text.py",
           "    def __exit__(self, *exc):\n",
           "    def __exit__(self, *exc):\n        if exc[0] is not None:\n            return\n",
           ("tests/test_text.py::test_loads_leave_the_collector_as_they_found_it",
            "tests/test_text.py::test_nested_loads_leave_the_collector_as_the_outermost_found_it")),
    Mutant("glove loader: non-finite component accepted", "text.py",
           "            if not np.isfinite(vec).all():\n",
           "            if False:\n",
           ("tests/test_text.py::test_glove_non_finite_raises_load_error_naming_the_line",)),
]

FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def named(test_id: str, tests: tuple[str, ...]) -> bool:
    return any(test_id == t or test_id.startswith(t + "[") for t in tests)


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, what happened) for one mutant, on its own copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "dialogrank" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return False, f"edit text found {text.count(mutant.old)} times, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
             "-o", "pythonpath=", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [t for t in FAILED.findall(proc.stdout) if named(t, mutant.tests)]
    if failed:
        return True, f"failed {failed[0]}"
    tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
    return False, f"survived (pytest exit {proc.returncode}: {tail[0]})"


def main() -> int:
    survivors = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        killed, note = run(mutant)
        survivors += not killed
        print(f"{'killed' if killed else 'NOT KILLED':10} {mutant.name}: {note} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
