type summary = {
  count : int;
  total : float;
  min : float;
  max : float;
  mean : float;
  median : float;
  p90 : float;
  p99 : float;
  stddev : float;
}

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  percentile_sorted sorted p

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let geomean xs =
  if Array.length xs = 0 then invalid_arg "Stats.geomean: empty sample";
  let log_sum =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive sample";
        acc +. Float.log x)
      0.0 xs
  in
  Float.exp (log_sum /. float_of_int (Array.length xs))

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let total = Array.fold_left ( +. ) 0.0 sorted in
  let mean = total /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 sorted
    /. float_of_int n
  in
  {
    count = n;
    total;
    min = sorted.(0);
    max = sorted.(n - 1);
    mean;
    median = percentile_sorted sorted 50.0;
    p90 = percentile_sorted sorted 90.0;
    p99 = percentile_sorted sorted 99.0;
    stddev = Float.sqrt var;
  }
