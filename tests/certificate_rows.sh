#!/usr/bin/env bash
# Runs `qf enumerate --no-cache` on the rows whose certificate or Tietze
# simplification was once slow, with the Python command given as the one
# argument, and fails on the first row that does not behave:
#
#   tests/certificate_rows.sh "python -O"
#
# Every row must exit 3 with empty stdout. The certificate rows run with
# `--max-cosets 20000` under `timeout 60`.
# - Certificate Smith forms: the rows whose pi1' relation matrices are the
#   largest that the Smith form's unit phase meets (605 x 485 for 5_2 at
#   n=5); combining rows by gcd cofactors ran each for minutes. The character
#   scan proves five of them without a certificate before that Smith form;
#   4_1 at n=6 still reaches it, and must print its infinite: line.
# - Character scan rows: the exact Smith form of pi1' ran for minutes on the
#   first four; the scan at the characters of H1(M_n) proves that no
#   certificate exists, so each prints one overflow: line and no infinite:
#   line. rational:15,2 at n=5 has more cosets x letters than the bound, and
#   its 62 orbits of characters are scanned within it.
# - Tietze rows, with `--max-cosets 1000` under `timeout 10`: 2-bridge knots
#   whose continued fraction is all 1s, so that G_2's words grow like
#   Fibonacci numbers as generators are eliminated (to 2.4 * 10^5 letters on
#   the last). A least rotation that compared every rotation ran the first
#   for 28 s; each must print one overflow: line and no infinite: line.
set -euo pipefail
python=$1
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() {  # knot n max-cosets seconds
  echo "$1 n=$2"
  local status=0
  # $python is split on purpose: it may carry flags such as -O
  PYTHONPATH=src timeout "$4" $python -m qf.cli enumerate --knot "$1" --n "$2" --no-cache \
    --max-cosets "$3" > "$out/stdout" 2> "$out/stderr" || status=$?
  test "$status" -eq 3
  test ! -s "$out/stdout"
}

for row in "catalog:5_2 5" "catalog:5_2 6" "rational:7,3 5" "rational:7,3 6" \
           "rational:9,2 4" "catalog:4_1 6"; do
  run $row 20000 60
  if [ "$row" = "catalog:4_1 6" ]; then
    grep -qxF "infinite: pi1(M_6) has a subgroup of index 320 with abelianization Z^27 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/11 x Z/66 x Z/330 x Z/330 x Z/330" \
      "$out/stderr"
  fi
done

for row in "rational:9,2 5" "rational:9,4 5" "rational:11,3 6" "rational:15,4 4" \
           "rational:15,2 5"; do
  run $row 20000 60
  test "$(grep -c '^overflow:' "$out/stderr")" -eq 1
  test "$(grep -c '^infinite:' "$out/stderr")" -eq 0
done

for knot in "rational:17711,10946" "rational:28657,17711" "rational:121393,75025"; do
  run "$knot" 2 1000 10
  test "$(grep -c '^overflow:' "$out/stderr")" -eq 1
  test "$(grep -c '^infinite:' "$out/stderr")" -eq 0
done
