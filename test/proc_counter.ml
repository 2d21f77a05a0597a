(* A processor's pipeline counter, read from its metric registry under
   the processor's own labels; a series the processor never registered
   fails the test. *)
let get p name =
  match
    Pasta_util.Metric.find_counter (Pasta.Processor.metrics p)
      ~labels:(Pasta.Processor.metric_labels p) name
  with
  | Some v -> v
  | None -> Alcotest.failf "processor has no counter %s" name
