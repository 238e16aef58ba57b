(* Bench rows: one writer, one reader and one gate for every committed
   benchmark baseline. *)

type value = Str of string | Num of float * int
type t = (string * value) list

let str name s = (name, Str s)
let int name i = (name, Num (float_of_int i, 0))
let num decimals name v = (name, Num (v, decimals))

let get_num row name =
  match List.assoc_opt name row with Some (Num (v, _)) -> Some v | _ -> None

let render = function
  | Str s -> s
  | Num (v, decimals) -> Printf.sprintf "%.*f" decimals v

let to_json row =
  let field (name, v) =
    match v with
    | Str s -> Printf.sprintf "%S: %S" name s
    | Num _ -> Printf.sprintf "%S: %s" name (render v)
  in
  "{" ^ String.concat ", " (List.map field row) ^ "}"

(* The reader keeps each number's written decimals, so [to_json] gives
   back the line it read. *)
let of_json line =
  match String.index_opt line '{' with
  | None -> None
  | Some start ->
      let ib =
        Scanf.Scanning.from_string
          (String.sub line start (String.length line - start))
      in
      let next () = Scanf.bscanf ib " %0c" Fun.id in
      let value () =
        if next () = '"' then Str (Scanf.bscanf ib "%S" Fun.id)
        else
          let tok = Scanf.bscanf ib "%[-+.0-9a-zA-Z]" Fun.id in
          let decimals =
            match String.index_opt tok '.' with
            | Some dot -> String.length tok - dot - 1
            | None -> 0
          in
          Num (float_of_string tok, decimals)
      in
      let rec fields acc =
        let name = Scanf.bscanf ib " %S :" Fun.id in
        let acc = (name, value ()) :: acc in
        if Scanf.bscanf ib " %c" Fun.id = ',' then fields acc else List.rev acc
      in
      Scanf.bscanf ib "{" ();
      if next () = '}' then Some [] else Some (fields [])

let output ?(lines = false) oc rows =
  let objs = List.map to_json rows in
  if lines then List.iter (fun o -> output_string oc (o ^ "\n")) objs
  else output_string oc ("[\n  " ^ String.concat ",\n  " objs ^ "\n]\n")

let output_csv oc = function
  | [] -> ()
  | first :: _ as rows ->
      let line fields = output_string oc (String.concat "," fields ^ "\n") in
      line (List.map fst first);
      List.iter (fun row -> line (List.map (fun (_, v) -> render v) row)) rows

let write ?lines ~path rows =
  let oc = open_out path in
  output ?lines oc rows;
  close_out oc

let read path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map of_json

(* -- The regression gate --------------------------------------------------- *)

type better = Higher | Lower

type spec = {
  target : string;
  baseline : string;
  where : (string * string) list;
  keys : string list;
  metric : string;
  better : better;
  floor : float;
}

type failure = { key : string; detail : string }

(* Key and filter fields compare as written, so a run row matches the
   baseline row it would be if it were committed. *)
let written row name = Option.map render (List.assoc_opt name row)

let gated spec row =
  let key =
    List.fold_right
      (fun k acc ->
        match (written row k, acc) with
        | Some v, Some rest -> Some ((k ^ "=" ^ v) :: rest)
        | _ -> None)
      spec.keys (Some [])
  in
  match (key, get_num row spec.metric) with
  | Some key, Some m
    when List.for_all (fun (k, v) -> written row k = Some v) spec.where ->
      Some (String.concat " " key, m)
  | _ -> None

let gate ~frac spec rows =
  let baseline = Hashtbl.create 64 in
  if Sys.file_exists spec.baseline then
    List.iter
      (fun row ->
        Option.iter
          (fun (k, m) -> Hashtbl.replace baseline k m)
          (gated spec row))
      (read spec.baseline);
  List.filter_map
    (fun row ->
      let ( let* ) = Option.bind in
      let* key, v = gated spec row in
      let* base = Hashtbl.find_opt baseline key in
      let fail fmt = Printf.ksprintf (fun d -> Some { key; detail = d }) fmt in
      match spec.better with
      | _ when base < spec.floor -> None
      | Higher when v < frac *. base ->
          fail "%s %.3f < %g x baseline %.3f" spec.metric v frac base
      | Lower when v > base /. frac ->
          fail "%s %.3f > baseline %.3f / %g" spec.metric v base frac
      | Higher | Lower -> None)
    rows

let frac_of_string s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f && f >= 0. -> Ok f
  | _ -> Error (Printf.sprintf "want a finite number >= 0, got %S" s)

let frac_of_env () =
  match Option.map frac_of_string (Sys.getenv_opt "DQ_GATE_FRAC") with
  | None -> 0.7
  | Some (Ok f) -> f
  | Some (Error msg) ->
      prerr_endline ("DQ_GATE_FRAC: " ^ msg);
      exit 2

(* -- The committed gates --------------------------------------------------- *)

let spec ?(where = []) ?(better = Higher) ?(floor = 0.) target baseline keys
    metric =
  { target; baseline = "bench/" ^ baseline; where; keys; metric; better; floor }

let heap_ops =
  spec "heap-ops" "heap_baseline.json" [ "op" ] "mops"
    ~where:[ ("mode", "fast"); ("domains", "1") ]

let set_ops =
  spec "set-ops" "set_baseline.json" [ "map"; "phase" ] "mops"
    ~where:[ ("domains", "1") ]

let shard_scaling =
  spec "shard-scaling" "shard_baseline.json"
    [ "profile"; "frontend"; "batch"; "shards" ]
    "wall_mops"

let durability_lag =
  spec "durability-lag" "durability_baseline.json" [ "level"; "batch" ]
    "wall_kops"

let recovery_time =
  spec "recovery-time" "recovery_baseline.json"
    [ "algorithm"; "size"; "checkpoint" ]
    "recover_ms" ~better:Lower ~floor:0.5

let load_points =
  spec "load" "load_baseline.json" [ "mode"; "mult" ] "admitted_hz"
    ~where:[ ("kind", "point") ]

let load_knee =
  spec "load" "load_baseline.json" [ "mode" ] "knee_hz"
    ~where:[ ("kind", "knee") ]
