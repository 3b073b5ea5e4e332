open Hlp_util

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_fill_words () =
  (* the bulk draw is successive [bits64] calls, stored strided, and
     leaves the state where those calls leave it *)
  List.iter
    (fun stride ->
      let a = Prng.create 99 and b = Prng.create 99 in
      let count = 17 and pos = 2 in
      let words = Array.make (pos + (count * stride)) (-7) in
      Prng.fill_words a words ~pos ~stride ~count;
      let expect = Array.make (Array.length words) (-7) in
      for i = 0 to count - 1 do
        expect.(pos + (i * stride)) <- Int64.to_int (Prng.bits64 b)
      done;
      Alcotest.(check (array int))
        (Printf.sprintf "stride %d words" stride)
        expect words;
      Alcotest.(check int64)
        (Printf.sprintf "stride %d state" stride)
        (Prng.state b) (Prng.state a))
    [ 1; 4 ];
  let t = Prng.create 1 in
  let s0 = Prng.state t in
  Prng.fill_words t [||] ~pos:0 ~stride:1 ~count:0;
  Alcotest.(check int64) "count 0 draws nothing" s0 (Prng.state t);
  List.iter
    (fun (what, pos, stride, count) ->
      match Prng.fill_words t (Array.make 8 0) ~pos ~stride ~count with
      | () -> Alcotest.fail ("expected Invalid_argument: " ^ what)
      | exception Invalid_argument _ ->
          Alcotest.(check int64) (what ^ ": state untouched") s0 (Prng.state t))
    [ ("past the end", 0, 4, 3); ("negative pos", -1, 1, 1);
      ("zero stride", 0, 0, 2); ("negative count", 0, 1, -1) ]

let test_prng_ranges () =
  let r = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int r 7 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 7);
    let f = Prng.float r 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.0)
  done

let test_prng_uniformity () =
  let r = Prng.create 7 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 10%" true (frac > 0.08 && frac < 0.12))
    counts

let test_prng_bernoulli () =
  let r = Prng.create 3 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bernoulli r 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.3" true (abs_float (frac -. 0.3) < 0.02)

let test_prng_gaussian () =
  let r = Prng.create 11 in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian r ~mu:2.0 ~sigma:3.0) in
  Alcotest.(check bool) "mean" true (abs_float (Stats.mean xs -. 2.0) < 0.1);
  Alcotest.(check bool) "stddev" true (abs_float (Stats.stddev xs -. 3.0) < 0.1)

let test_prng_exponential () =
  let r = Prng.create 13 in
  let xs = Array.init 20_000 (fun _ -> Prng.exponential r ~mean:5.0) in
  Alcotest.(check bool) "mean near 5" true (abs_float (Stats.mean xs -. 5.0) < 0.2)

let test_prng_split_independent () =
  let a = Prng.create 42 in
  let b = Prng.split a in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_prng_weighted () =
  let r = Prng.create 17 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let v = Prng.pick_weighted r [ (1.0, "a"); (2.0, "b"); (7.0, "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let frac k = float_of_int (Hashtbl.find counts k) /. 30_000.0 in
  Alcotest.(check bool) "a ~ 0.1" true (abs_float (frac "a" -. 0.1) < 0.02);
  Alcotest.(check bool) "c ~ 0.7" true (abs_float (frac "c" -. 0.7) < 0.02)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  check_float "variance" (5.0 /. 3.0) (Stats.variance a);
  check_float "median" 2.5 (Stats.median a);
  check_float "min" 1.0 (Stats.minimum a);
  check_float "max" 4.0 (Stats.maximum a)

let test_stats_relative_error () =
  check_float "plain" 0.1 (Stats.relative_error ~actual:10.0 ~estimate:11.0);
  check_float "zero-zero" 0.0 (Stats.relative_error ~actual:0.0 ~estimate:0.0)

let test_stats_correlation () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = Array.map (fun v -> (2.0 *. v) +. 1.0 ) x in
  check_float ~eps:1e-9 "perfect corr" 1.0 (Stats.correlation x y);
  let yneg = Array.map (fun v -> -.v) x in
  check_float ~eps:1e-9 "anti corr" (-1.0) (Stats.correlation x yneg)

let test_stats_linreg () =
  let x = [| 0.0; 1.0; 2.0; 3.0 |] in
  let y = Array.map (fun v -> (3.0 *. v) -. 1.0) x in
  let { Stats.slope; intercept; r2 } = Stats.linear_regression ~x ~y in
  check_float ~eps:1e-9 "slope" 3.0 slope;
  check_float ~eps:1e-9 "intercept" (-1.0) intercept;
  check_float ~eps:1e-9 "r2" 1.0 r2

let test_stats_ratio_estimator () =
  (* y = 2x exactly: ratio estimator should recover 2 * population_x *)
  let x = [| 1.0; 2.0; 5.0 |] in
  let y = Array.map (fun v -> 2.0 *. v) x in
  check_float "ratio" 200.0 (Stats.ratio_estimator ~y ~x ~population_x:100.0)

let test_stats_percentile () =
  let a = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "p100 = max" 5.0 (Stats.percentile a 100.0);
  check_float "p20 = min" 1.0 (Stats.percentile a 20.0)

let test_stats_percentile_extremes () =
  let a = [| 9.0; 2.0; 7.0 |] in
  check_float "p0 = min" 2.0 (Stats.percentile a 0.0);
  check_float "p100 = max" 9.0 (Stats.percentile a 100.0);
  check_float "singleton p0" 4.0 (Stats.percentile [| 4.0 |] 0.0);
  check_float "singleton p100" 4.0 (Stats.percentile [| 4.0 |] 100.0)

let test_stats_histogram_degenerate () =
  (* all samples equal (hi = lo): everything lands in the first bin *)
  let h = Stats.histogram ~bins:4 (Array.make 6 3.5) in
  Alcotest.(check int) "bins" 4 (Array.length h);
  check_float "first edge" 3.5 (fst h.(0));
  Alcotest.(check int) "all in first bin" 6 (snd h.(0));
  Alcotest.(check int) "rest empty" 0 (snd h.(1) + snd h.(2) + snd h.(3))

let test_stats_single_element () =
  check_float "variance of 1" 0.0 (Stats.variance [| 42.0 |]);
  let lo, hi = Stats.confidence_interval_95 [| 42.0 |] in
  check_float "ci95 lo" 42.0 lo;
  check_float "ci95 hi" 42.0 hi;
  (* a one-element t-interval would need df = 0: rejected, not silently wrong *)
  Alcotest.check_raises "df 0"
    (Invalid_argument "Stats.confidence_interval: df must be >= 1") (fun () ->
      ignore (Stats.confidence_interval ~level:0.95 ~df:0 [| 42.0 |]))

let test_stats_correlation_constant () =
  let x = [| 1.0; 2.0; 3.0 |] in
  check_float "constant right" 0.0 (Stats.correlation x (Array.make 3 7.0));
  check_float "constant left" 0.0 (Stats.correlation (Array.make 3 7.0) x)

let test_stats_t_quantile () =
  (* pinned against standard t tables *)
  check_float ~eps:5e-4 "df1 95" 12.706 (Stats.t_quantile ~level:0.95 ~df:1);
  check_float ~eps:5e-4 "df2 95" 4.303 (Stats.t_quantile ~level:0.95 ~df:2);
  check_float ~eps:5e-4 "df10 95" 2.228 (Stats.t_quantile ~level:0.95 ~df:10);
  check_float ~eps:2e-2 "df35 interpolated" 2.030 (Stats.t_quantile ~level:0.95 ~df:35);
  check_float ~eps:2e-3 "df1000 ~ z" 1.962 (Stats.t_quantile ~level:0.95 ~df:1000);
  check_float ~eps:5e-4 "df5 99" 4.032 (Stats.t_quantile ~level:0.99 ~df:5);
  check_float ~eps:5e-4 "df5 90" 2.015 (Stats.t_quantile ~level:0.90 ~df:5);
  Alcotest.check_raises "df 0"
    (Invalid_argument "Stats.t_quantile: df must be >= 1") (fun () ->
      ignore (Stats.t_quantile ~level:0.95 ~df:0));
  Alcotest.check_raises "bad level"
    (Invalid_argument
       "Stats.t_quantile: unsupported level 0.8 (use 0.90, 0.95, 0.99)")
    (fun () -> ignore (Stats.t_quantile ~level:0.80 ~df:5))

let test_stats_t_interval_wider_than_z () =
  (* the whole point of the Student-t correction: at small n the interval
     must be wider than the normal approximation, and converge to it *)
  let a = [| 10.0; 12.0; 14.0 |] in
  let zlo, zhi = Stats.confidence_interval_95 a in
  let tlo, thi = Stats.confidence_interval ~level:0.95 ~df:2 a in
  Alcotest.(check bool) "t wider at df 2" true (thi -. tlo > zhi -. zlo);
  check_float ~eps:1e-9 "same center" ((zlo +. zhi) /. 2.0) ((tlo +. thi) /. 2.0);
  (* width ratio = t/z = 4.303 / 1.96 *)
  check_float ~eps:1e-3 "ratio 4.303/1.96" (4.303 /. 1.96)
    ((thi -. tlo) /. (zhi -. zlo))

let test_stats_ratio_estimator_zero_sample () =
  (* sampled auxiliary values all zero: the ratio is undefined; the
     estimator must return the census fallback, not a spurious 0 *)
  check_float "fallback" 100.0
    (Stats.ratio_estimator ~y:[| 1.0; 2.0 |] ~x:[| 0.0; 0.0 |] ~population_x:100.0)

let test_linalg_solve () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let b = [| 5.0; 10.0 |] in
  let x = Linalg.solve a b in
  check_float ~eps:1e-9 "x0" 1.0 x.(0);
  check_float ~eps:1e-9 "x1" 3.0 x.(1)

let test_linalg_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix")
    (fun () -> ignore (Linalg.solve a [| 1.0; 2.0 |]))

let test_linalg_least_squares () =
  (* exact linear model y = 3 a + 2 b recovered from 5 rows *)
  let x =
    [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |]
  in
  let y = Array.map (fun row -> (3.0 *. row.(0)) +. (2.0 *. row.(1))) x in
  let beta = Linalg.least_squares x y in
  check_float ~eps:1e-4 "beta0" 3.0 beta.(0);
  check_float ~eps:1e-4 "beta1" 2.0 beta.(1);
  check_float ~eps:1e-6 "r2" 1.0 (Linalg.r_squared x y beta)

let test_linalg_nonneg () =
  (* y depends negatively on column 1; nonneg fit must zero it out *)
  let x = [| [| 1.0; 1.0 |]; [| 2.0; 0.0 |]; [| 3.0; 2.0 |]; [| 4.0; 1.0 |] |] in
  let y = Array.map (fun row -> (2.0 *. row.(0)) -. (0.5 *. row.(1))) x in
  let beta = Linalg.least_squares_nonneg x y in
  Alcotest.(check bool) "no negative coef" true (Array.for_all (fun c -> c >= 0.0) beta)

let test_linalg_matmul () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let id = Linalg.identity 2 in
  let c = Linalg.mat_mul a id in
  Alcotest.(check bool) "a * I = a" true (c = a);
  let v = Linalg.mat_vec a [| 1.0; 1.0 |] in
  check_float "row sums" 3.0 v.(0);
  check_float "row sums" 7.0 v.(1)

let test_bits_popcount_hamming () =
  Alcotest.(check int) "popcount 0" 0 (Bits.popcount 0);
  Alcotest.(check int) "popcount 0b1011" 3 (Bits.popcount 0b1011);
  Alcotest.(check int) "hamming" 2 (Bits.hamming 0b1100 0b1001)

let test_bits_gray_roundtrip () =
  for v = 0 to 255 do
    Alcotest.(check int) "roundtrip" v (Bits.of_gray (Bits.to_gray v))
  done;
  (* consecutive values differ in one bit under gray *)
  for v = 0 to 254 do
    Alcotest.(check int) "adjacent gray distance" 1
      (Bits.hamming (Bits.to_gray v) (Bits.to_gray (v + 1)))
  done

let test_bits_roundtrip () =
  for v = 0 to 63 do
    let bits = Bits.bits_of_int ~width:6 v in
    Alcotest.(check int) "bits roundtrip" v (Bits.int_of_bits bits)
  done

let test_bits_sign_extend () =
  Alcotest.(check int) "positive" 3 (Bits.sign_extend ~width:4 3);
  Alcotest.(check int) "negative" (-1) (Bits.sign_extend ~width:4 0xF);
  Alcotest.(check int) "-8" (-8) (Bits.sign_extend ~width:4 8);
  Alcotest.(check int) "of_signed inverse" 0xF (Bits.of_signed ~width:4 (-1))

let test_bits_transitions () =
  Alcotest.(check int) "no transitions" 0 (Bits.transitions ~width:8 [| 5; 5; 5 |]);
  Alcotest.(check int) "one flip per step" 2 (Bits.transitions ~width:8 [| 0; 1; 0 |]);
  Alcotest.(check int) "full flip" 8 (Bits.transitions ~width:8 [| 0; 255 |])

let test_heap_ordering () =
  let h = Heap.create () in
  let r = Prng.create 5 in
  let keys = Array.init 500 (fun _ -> Prng.float r 100.0) in
  Array.iteri (fun i k -> Heap.push h k i) keys;
  Alcotest.(check int) "size" 500 (Heap.size h);
  let last = ref neg_infinity in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (k, _) ->
        Alcotest.(check bool) "non-decreasing" true (k >= !last);
        last := k;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "30"; "4" ] ] in
  Alcotest.(check bool) "has rule" true (String.length s > 0 && String.contains s '-');
  Alcotest.(check string) "pct" "12.3%" (Table.fmt_pct 0.123);
  Alcotest.(check string) "float" "1.50" (Table.fmt_float 1.5)

let qcheck_gray_distance =
  QCheck.Test.make ~name:"gray code of consecutive ints differs by 1 bit"
    QCheck.(int_bound 100_000)
    (fun v -> Bits.hamming (Bits.to_gray v) (Bits.to_gray (v + 1)) = 1)

let qcheck_popcount_additive =
  QCheck.Test.make ~name:"popcount of disjoint or adds"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      let b = b land lnot a in
      Bits.popcount (a lor b) = Bits.popcount a + Bits.popcount b)

let qcheck_solve_roundtrip =
  QCheck.Test.make ~name:"solve(A, A x) = x for diagonally dominant A"
    QCheck.(pair small_int (list_of_size (Gen.return 9) (float_range (-1.0) 1.0)))
    (fun (seed, coeffs) ->
      QCheck.assume (List.length coeffs = 9);
      let c = Array.of_list coeffs in
      let a =
        Array.init 3 (fun i ->
            Array.init 3 (fun j ->
                let v = c.((3 * i) + j) in
                if i = j then 5.0 +. abs_float v else v))
      in
      let r = Prng.create seed in
      let x = Array.init 3 (fun _ -> Prng.float r 10.0 -. 5.0) in
      let b = Linalg.mat_vec a x in
      let x' = Linalg.solve a b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) x x')

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bulk draw" `Quick test_prng_fill_words;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "prng bernoulli" `Quick test_prng_bernoulli;
    Alcotest.test_case "prng gaussian" `Quick test_prng_gaussian;
    Alcotest.test_case "prng exponential" `Quick test_prng_exponential;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng weighted pick" `Quick test_prng_weighted;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats relative error" `Quick test_stats_relative_error;
    Alcotest.test_case "stats correlation" `Quick test_stats_correlation;
    Alcotest.test_case "stats linear regression" `Quick test_stats_linreg;
    Alcotest.test_case "stats ratio estimator" `Quick test_stats_ratio_estimator;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile extremes" `Quick test_stats_percentile_extremes;
    Alcotest.test_case "stats histogram degenerate" `Quick test_stats_histogram_degenerate;
    Alcotest.test_case "stats single element" `Quick test_stats_single_element;
    Alcotest.test_case "stats correlation constant" `Quick test_stats_correlation_constant;
    Alcotest.test_case "stats t quantile" `Quick test_stats_t_quantile;
    Alcotest.test_case "stats t vs z interval" `Quick test_stats_t_interval_wider_than_z;
    Alcotest.test_case "stats ratio zero sample" `Quick test_stats_ratio_estimator_zero_sample;
    Alcotest.test_case "linalg solve" `Quick test_linalg_solve;
    Alcotest.test_case "linalg singular" `Quick test_linalg_singular;
    Alcotest.test_case "linalg least squares" `Quick test_linalg_least_squares;
    Alcotest.test_case "linalg nonneg least squares" `Quick test_linalg_nonneg;
    Alcotest.test_case "linalg matmul" `Quick test_linalg_matmul;
    Alcotest.test_case "bits popcount/hamming" `Quick test_bits_popcount_hamming;
    Alcotest.test_case "bits gray roundtrip" `Quick test_bits_gray_roundtrip;
    Alcotest.test_case "bits int roundtrip" `Quick test_bits_roundtrip;
    Alcotest.test_case "bits sign extend" `Quick test_bits_sign_extend;
    Alcotest.test_case "bits transitions" `Quick test_bits_transitions;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "table render" `Quick test_table_render;
    QCheck_alcotest.to_alcotest qcheck_gray_distance;
    QCheck_alcotest.to_alcotest qcheck_popcount_additive;
    QCheck_alcotest.to_alcotest qcheck_solve_roundtrip;
  ]
