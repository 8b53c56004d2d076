#!/usr/bin/env bash
# Runs the committed mutants (every mutants/*.diff, or the ones named as
# arguments). A mutant is a unified diff whose header names the package, the
# -run pattern of the test that must fail on it and a substring of that
# failure:
#
#   # package: ./kv
#   # run: ^TestKVCrashPoints$
#   # expect: was acknowledged
#
# For each mutant the tree (without .git and .bench_build) is copied to a
# fresh temporary directory, the diff is applied there with git apply and
# the named test is run. The run fails, naming the mutant, if a diff does
# not apply, if its test passes (the mutant survived) or if the test fails
# without the expected text (it fails for another reason).
set -u
cd "$(dirname "$0")/.."
root=$PWD
if [ $# -eq 0 ]; then
	set -- mutants/*.diff
fi
# field prints the value of header line "# <name>: <value>" of mutant $m.
field() { sed -n "s/^# $1: //p" "$m" | head -n 1; }
status=0
for m in "$@"; do
	pkg=$(field package) run=$(field run) expect=$(field expect)
	if [ -z "$pkg" ] || [ -z "$run" ] || [ -z "$expect" ]; then
		echo "BAD HEADER $m: it needs package, run and expect lines"
		status=1
		continue
	fi
	dir=$(mktemp -d)
	tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$dir" -xf -
	if ! (cd "$dir" && git apply "$root/$m"); then
		echo "DOES NOT APPLY $m"
		status=1
	elif out=$(cd "$dir" && go test -trimpath -count=1 -run "$run" "$pkg" 2>&1); then
		echo "SURVIVED $m: go test -run '$run' $pkg passes"
		status=1
	elif ! grep -qF -- "$expect" <<<"$out"; then
		echo "WRONG FAILURE $m: go test -run '$run' $pkg fails without \"$expect\":"
		tail -n 20 <<<"$out"
		status=1
	else
		echo "killed $m by $run"
	fi
	rm -rf "$dir"
done
exit $status
