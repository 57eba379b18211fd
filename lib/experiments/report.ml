type table = {
  id : string;
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~columns ?(notes = []) rows =
  List.iter
    (fun row ->
      if List.length row <> List.length columns then
        invalid_arg ("Report.make: ragged row in " ^ id))
    rows;
  { id; title; columns; rows; notes }

let print ppf t =
  let all_rows = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let width j =
    List.fold_left
      (fun acc row ->
        Int.max acc (String.length (Option.value ~default:"" (List.nth_opt row j))))
      0 all_rows
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let print_row row =
    List.iteri
      (fun j cell ->
        if j > 0 then Format.fprintf ppf "  ";
        Format.fprintf ppf "%s"
          (pad cell (Option.value ~default:0 (List.nth_opt widths j))))
      row;
    Format.fprintf ppf "@."
  in
  Format.fprintf ppf "== %s: %s ==@." t.id t.title;
  print_row t.columns;
  let total = List.fold_left ( + ) (2 * (ncols - 1)) widths in
  Format.fprintf ppf "%s@." (String.make total '-');
  List.iter print_row t.rows;
  List.iter (fun n -> Format.fprintf ppf "note: %s@." n) t.notes;
  Format.fprintf ppf "@."

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
